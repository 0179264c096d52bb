package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactCounts are the program's own counts that must repeat exactly between
// two runs of one commit on one seed.
var exactCounts = []string{"core.refreshes", "core.alarms", "noc.fetches", "ingest.records"}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var r result
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns (the
// exclusive method), which is how the benchmark's acceptance spread is taken.
func quartiles(v []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	n := len(x)
	if n == 1 {
		return x[0], x[0], x[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // outside [0, 4] after clamping: extrapolates, as Python does
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return safeDiv(q3-q1, q2)
}

// undisturbed returns the metric's values over a set's runs of one workload,
// leaving out runs the host slowed unless that would leave none.
func undisturbed(set []result, workload string, pick func(*result) (metric, bool)) []float64 {
	var clean, all []float64
	for i := range set {
		r := &set[i]
		if r.Workload != workload {
			continue
		}
		m, ok := pick(r)
		if !ok {
			continue
		}
		all = append(all, m.Value)
		if !r.Disturbed {
			clean = append(clean, m.Value)
		}
	}
	if len(clean) > 0 {
		return clean
	}
	return all
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, their quartiles, the ratio b/a, and ok, worse (b's median is
// worse than a's by more than the metric's bound) or unresolved (either
// set's spread is wider than the bound). It reports whether any row is worse.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (worse bool, err error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-24s %12s %12s %22s %22s %10s  %s\n",
		"workload", "metric", "a median", "b median", "a q1..q3", "b q1..q3", "b/a", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			pick := func(r *result) (metric, bool) { v, ok := r.EndToEnd[m.Name]; return v, ok }
			va, vb := undisturbed(a, wl.Name, pick), undisturbed(b, wl.Name, pick)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			change := safeDiv(b2-a2, a2) // positive: b is larger
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(w, "%-14s %-24s %12.4f %12.4f %22s %22s %10s  %s\n", wl.Name, m.Name, a2, b2,
				fmt.Sprintf("%.4g..%.4g", a1, a3), fmt.Sprintf("%.4g..%.4g", b1, b3),
				fmt.Sprintf("%.4f (base a)", safeDiv(b2, a2)), verdict)
		}
		for _, name := range exactCounts {
			pick := func(r *result) (metric, bool) { v, ok := r.PerLayer[name]; return v, ok }
			// Counts depend on the seed, so they are compared seed by seed.
			bySeed := map[int64][]float64{}
			for _, set := range [][]result{a, b} {
				for i := range set {
					if v, ok := pick(&set[i]); ok && set[i].Workload == wl.Name && !set[i].Truncated {
						bySeed[set[i].Seed] = append(bySeed[set[i].Seed], v.Value)
					}
				}
			}
			verdict, runs := "exact", 0
			for _, vals := range bySeed {
				runs += len(vals)
				for _, v := range vals {
					if v != vals[0] {
						verdict = "differs"
					}
				}
			}
			if runs > 0 {
				fmt.Fprintf(w, "%-14s %-24s %d untruncated runs over %d seeds: %s\n", wl.Name, name, runs, len(bySeed), verdict)
			}
		}
	}
	return worse, nil
}
