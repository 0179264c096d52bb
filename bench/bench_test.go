package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// listed is a metric as BENCHMARK.json lists it.
type listed struct{ Name, Unit string }

// contract is the part of BENCHMARK.json the smoke test holds the code to.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []listed                `json:"end_to_end"`
	PerLayer  []listed                `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// small shrinks a workload to N = 20 measured intervals behind an n = 32
// window, keeping its deployment and traffic shape (and a synthetic topology
// at m = 100: under -race the m = 144 eigensolves alone take 40 s).
func small(w spec) spec {
	w.window, w.intervals = 32, 20
	if w.routers > 0 {
		w.routers = 10
	}
	if w.injectEvery > 4 {
		w.injectEvery = 4
	}
	if w.chunk > 0 {
		w.chunk = 8
	}
	return w
}

// settle waits for goroutines started by a run to exit and returns how many
// remain beyond the baseline.
func settle(baseline int) int {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine() - baseline
}

func TestWorkloadsSmoke(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code %d", len(c.Workloads), len(workloads))
	}
	perSpan := spanCost()
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, c.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			r, st, err := runWorkload(small(w), 60, 30*time.Second, 1, perSpan)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Truncated || r.Attempted != 20 {
				t.Errorf("correct %v, failed %d, truncated %v, attempted %d; failures %v",
					r.Correct, r.Failed, r.Truncated, r.Attempted, r.Failures)
			}
			if len(st.decisions) != 20 || len(st.spans) == 0 {
				t.Errorf("staged run: %d decisions, %d spans", len(st.decisions), len(st.spans))
			}
			checkGroup(t, "end_to_end", c.EndToEnd, r.EndToEnd)
			checkGroup(t, "per_layer", c.PerLayer, r.PerLayer)
			if w.recordsPerFlow > 0 {
				// Each pipeline also sees the datagram of interval 21 (30 records) that seals interval 20.
				if got, want := r.PerLayer["ingest.records"].Value, float64(20*81*w.recordsPerFlow+30*w.monitors); got != want {
					t.Errorf("ingest.records = %v, want %v", got, want)
				}
			}
			// The stage table plus the glue row is the deployed figure.
			var quietSum float64
			for _, row := range r.Stages {
				quietSum += row.QuietUs
			}
			if got := quietSum + r.PerLayer["glue.quiet_unattributed_us"].Value; math.Abs(got-r.EndToEnd["quiet_p50_ms"].Value*1e3) > 1e-6 {
				t.Errorf("quiet stages + glue = %v us, quiet_p50_ms = %v ms", got, r.EndToEnd["quiet_p50_ms"].Value)
			}
			if left := settle(baseline); left > 0 {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines survive the run:\n%s", left, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// checkGroup asserts that a result carries exactly the metrics BENCHMARK.json
// lists for the group, each finite and with the listed unit.
func checkGroup(t *testing.T, group string, want []listed, got map[string]metric) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range want {
		if seen[m.Name] {
			t.Errorf("%s: %s listed twice in BENCHMARK.json", group, m.Name)
		}
		seen[m.Name] = true
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing from the result", group, m.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", group, m.Name, v.Value)
		case v.Unit != m.Unit || v.Unit == "":
			t.Errorf("%s: %s has unit %q, BENCHMARK.json %q", group, m.Name, v.Unit, m.Unit)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("%s: result carries %s, which BENCHMARK.json does not list", group, name)
		}
	}
}

func TestCloseLeavesNoListener(t *testing.T) {
	w, _ := findWorkload("fed-wide")
	in, err := newInputs(small(w), 60)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	d, err := deploy(in)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{d.noc.Addr()}
	for _, a := range d.aggs {
		addrs = append(addrs, a.Addr())
	}
	if err := d.warmup(); err != nil {
		t.Fatal(err)
	}
	d.close()
	for _, addr := range addrs {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Errorf("%s still accepts connections after close", addr)
		}
	}
	if left := settle(baseline); left > 0 {
		t.Errorf("%d goroutines survive close", left)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	w, _ := findWorkload("fed-fd-ingest")
	w = small(w)
	a, err := newInputs(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newInputs(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newInputs(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !a.trace.Volumes.Equal(b.trace.Volumes, 0) {
		t.Error("the same seed generated different traffic")
	}
	if a.trace.Volumes.Equal(c.trace.Volumes, 0) {
		t.Error("different seeds generated the same traffic")
	}
	first := a.firstMeasured()
	da, err := a.encode(first, first+2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.encode(first, first+2)
	if err != nil {
		t.Fatal(err)
	}
	for mon := range da.perMon {
		ba, bb := da.burst(mon, first, true), db.burst(mon, first, true)
		if len(ba) != len(bb) {
			t.Fatalf("monitor %d: %d and %d datagrams", mon, len(ba), len(bb))
		}
		for k := range ba {
			if !bytes.Equal(ba[k], bb[k]) {
				t.Fatalf("monitor %d datagram %d differs between two encodings of one seed", mon, k)
			}
		}
	}
}

func TestDatagramCacheCap(t *testing.T) {
	w, _ := findWorkload("fed-fd-ingest")
	w.intervals = 400 // ~230 KiB of datagrams each: past the 64 MiB cap
	in, err := newInputs(w, 60)
	if err != nil {
		t.Fatal(err)
	}
	first := in.firstMeasured()
	if _, err := in.encode(first, first+int64(w.intervals)); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("encoding 400 intervals at once: err = %v, want the cache-cap error", err)
	}
}

func TestDeadlineTruncates(t *testing.T) {
	w, _ := findWorkload("flat-quiet")
	r, _, err := runWorkload(w, 60, 150*time.Millisecond, 1, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Truncated || r.Attempted == 0 || r.Attempted >= w.intervals {
		t.Errorf("truncated %v with %d of %d intervals attempted", r.Truncated, r.Attempted, w.intervals)
	}
	if !r.Correct || r.Failed != 0 {
		t.Errorf("intervals past the deadline counted as failed: correct %v, failed %d, %v", r.Correct, r.Failed, r.Failures)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for these inputs.
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{5, 1, 9, 3, 7}, [3]float64{2, 5, 8}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	specJSON := `{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"lat_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"rate","unit":"1/s","better":"higher","bound":0.1},
		{"name":"noisy_ms","unit":"ms","better":"lower","bound":0.1}]}`
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, lat, rate, noisy []float64, refreshes float64) string {
		path := filepath.Join(dir, name)
		for i := range lat {
			r := &result{Workload: "w", Seed: 60, EndToEnd: map[string]metric{
				"lat_ms": {Value: lat[i], Unit: "ms"}, "rate": {Value: rate[i], Unit: "1/s"}, "noisy_ms": {Value: noisy[i], Unit: "ms"},
			}, PerLayer: map[string]metric{"core.refreshes": count(int64(refreshes))}}
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	a := write("a.jsonl", steady, []float64{100, 101, 99, 100, 100}, []float64{5, 9, 14, 7, 11}, 92)
	b := write("b.jsonl", []float64{12, 12.1, 11.9, 12, 12}, []float64{95, 96, 94, 95, 95}, []float64{5, 9, 14, 7, 11}, 92)

	var out bytes.Buffer
	worse, err := compareFiles(&out, spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a 20% slower median within a 10% bound was not reported as worse")
	}
	for _, want := range []string{"lat_ms", "worse", "rate", "ok", "noisy_ms", "unresolved", "core.refreshes", "exact", "(base a)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if worse, err = compareFiles(&out, spec, a, a); err != nil || worse {
		t.Errorf("a file against itself: worse %v, err %v", worse, err)
	}
}
