// Command bench is the interval-to-decision benchmark (ISSUE 12): it runs
// each workload against real services on loopback TCP, closed loop, and
// replays the same inputs through a staged, traced driver that gives the
// per-layer numbers and the reference the deployed decisions are checked
// against. See README.md beside this file.
//
//	bash bench/run.sh                                  # every workload, end-to-end metrics
//	bash bench/run.sh --workload flat-alarm --trace 1  # one workload, per-layer metrics + span JSONL
//	bash bench/run.sh -compare a.jsonl b.jsonl         # two sets of -out results against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// contractLine is the last line a run prints on standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupRepeats is how many times a run sets the deployment up; setup_s is
// the median.
const setupRepeats = 3

func main() {
	var (
		names    = flag.String("workload", "", "comma-separated workloads to run (default: all)")
		seed     = flag.Int64("seed", 60, "seed of the generated traffic and injections (61 is held out for later claims)")
		seconds  = flag.Float64("seconds", 10, "wall deadline of each driver's measured phase; intervals not reached are not attempted")
		traced   = flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics and writes the spans")
		out      = flag.String("out", "", "append each workload's full result to this JSON-lines file")
		spans    = flag.String("spans", ".bench_build", "directory for spans-<workload>.jsonl under -trace 1 (empty: do not write)")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.jsonl b.jsonl")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark contract holding the bounds -compare applies")
	)
	flag.StringVar(names, "workloads", "", "alias of -workload")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.jsonl b.jsonl")
		}
		worse, err := compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("compare: %v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}

	selected := workloads
	if *names != "" {
		selected = nil
		for _, name := range strings.Split(*names, ",") {
			w, ok := findWorkload(strings.TrimSpace(name))
			if !ok {
				fatalf("unknown workload %q", name)
			}
			selected = append(selected, w)
		}
	}
	budget := time.Duration(*seconds * float64(time.Second))
	perSpan := spanCost()
	ok := true
	for _, w := range selected {
		r, st, err := runWorkload(w, *seed, budget, setupRepeats, perSpan)
		if err != nil {
			fatalf("workload %s: %v", w.name, err)
		}
		r.print(os.Stderr)
		if *traced == 1 && *spans != "" {
			path := filepath.Join(*spans, "spans-"+w.name+".jsonl")
			if err := writeSpans(path, st.spans); err != nil {
				fatalf("workload %s: %v", w.name, err)
			}
			fmt.Fprintf(os.Stderr, "  %d spans written to %s\n", len(st.spans), path)
		}
		if *out != "" {
			if err := appendResult(*out, r); err != nil {
				fatalf("workload %s: %v", w.name, err)
			}
		}
		line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractMetric{}}
		group := r.EndToEnd
		if *traced == 1 {
			group = r.PerLayer
		}
		for name, m := range group {
			line.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
		}
		enc, err := json.Marshal(line)
		if err != nil {
			fatalf("workload %s: %v", w.name, err)
		}
		fmt.Println(string(enc))
		ok = ok && r.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runWorkload runs both drivers on one workload and assembles its result.
func runWorkload(w spec, seed int64, budget time.Duration, setups int, perSpan time.Duration) (*result, *stagedRun, error) {
	steal0, total0 := cpuJiffies()
	dep, err := runDeployed(w, seed, budget, setups)
	if err != nil {
		return nil, nil, err
	}
	st, err := runStaged(dep.in, len(dep.samples), budget)
	if err != nil {
		return nil, nil, err
	}
	steal1, total1 := cpuJiffies()
	r := &result{Workload: w.name, Seed: seed, Seconds: budget.Seconds(), Host: readHost()}
	r.HostStealFrac = stealFrac(steal0, total0, steal1, total1)
	r.Disturbed = r.HostStealFrac > disturbedAbove
	r.verify(dep, st)
	r.fromDeployed(dep)
	r.fromStaged(dep, st, perSpan)
	return r, st, nil
}

func appendResult(path string, r *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// print writes the human-readable report: verdict, every metric by name with
// its unit and sample count, and the stage table with its glue rows.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d: correct=%v attempted=%d failed=%d (failed_frac %.4f) truncated=%v host_steal_frac=%.3f disturbed=%v\n",
		r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed, r.FailedFrac, r.Truncated, r.HostStealFrac, r.Disturbed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, group := range []map[string]metric{r.EndToEnd, r.PerLayer} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := group[name]
			fmt.Fprintf(w, "  %-32s %14.4f %-6s", name, m.Value, m.Unit)
			if m.Samples > 0 {
				fmt.Fprintf(w, " n=%d", m.Samples)
			}
			if m.Note != "" {
				fmt.Fprintf(w, " (%s)", m.Note)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "  %-32s %14s %14s\n", "stage p50 per interval", "quiet us", "alarm us")
	for _, s := range r.Stages {
		fmt.Fprintf(w, "  %-32s %14.1f %14.1f\n", s.Stage, s.QuietUs, s.AlarmUs)
	}
	fmt.Fprintf(w, "  %-32s %14.1f %14.1f\n", "glue (deployed p50 - stages)",
		r.PerLayer["glue.quiet_unattributed_us"].Value, r.PerLayer["glue.alarm_unattributed_ms"].Value*1e3)
}
