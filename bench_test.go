package streampca

// Benchmark harness: one benchmark per evaluation figure of the paper plus
// the Theorem 1 complexity microbenchmarks and ablations over the design
// choices called out in DESIGN.md. The figure benchmarks run the same code
// paths as cmd/abilene-eval on reduced dimensions so the whole suite
// completes in minutes; the binary regenerates the full-size figures.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/eval"
	"streampca/internal/mat"
	"streampca/internal/obs"
	"streampca/internal/pca"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
	"streampca/internal/stats"
	"streampca/internal/trace"
	"streampca/internal/traffic"
	"streampca/internal/transport"
	"streampca/internal/vh"
)

// benchTrace caches one eval workload across benchmarks.
func benchTrace(b *testing.B, perDay, total, warmup int) *traffic.Trace {
	b.Helper()
	tr, err := eval.BuildEvalTrace(2008, total, perDay, warmup)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkFig05CoordinatedTrace regenerates the Fig. 5 workload: a
// synthetic Abilene trace with a coordinated low-profile anomaly and the
// four plotted OD-flow series.
func BenchmarkFig05CoordinatedTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, start, end, err := eval.BuildFig5Trace(3, 2*traffic.IntervalsPerDay5Min)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eval.ExtractSeries(tr, eval.Fig5Flows, start-10, end+10); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScenario is the reduced evaluation set-up the figure benchmarks share.
func benchScenario(b *testing.B, perDay, total, window int) eval.Scenario {
	return eval.Scenario{
		Trace: benchTrace(b, perDay, total, window), WindowLen: window, Rank: 6,
		Alpha: 0.01, Seed: 9, RefitEvery: 16,
	}
}

// errorSurfaceBench runs the Fig. 7/8 pipeline (ground truth + (r,l) error
// sweep) on a reduced grid.
func errorSurfaceBench(b *testing.B, perDay int) {
	s := benchScenario(b, perDay, perDay, perDay/4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		truth, err := eval.GroundTruth(s)
		if err != nil {
			b.Fatal(err)
		}
		points, err := eval.SweepErrors(s, truth, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []int{10, 50})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 20 {
			b.Fatalf("points = %d", len(points))
		}
	}
}

// BenchmarkFig07ErrorSurface5Min exercises the Fig. 7 pipeline (5-minute
// intervals).
func BenchmarkFig07ErrorSurface5Min(b *testing.B) {
	errorSurfaceBench(b, traffic.IntervalsPerDay5Min)
}

// BenchmarkFig08ErrorSurface1Min exercises the Fig. 8 pipeline (1-minute
// intervals; same algorithmic path, finer-grained workload).
func BenchmarkFig08ErrorSurface1Min(b *testing.B) {
	errorSurfaceBench(b, traffic.IntervalsPerDay1Min/4)
}

// BenchmarkFig09ErrorsVsSketchLen exercises the Fig. 9 pipeline: r fixed at
// 6, sweeping the sketch length.
func BenchmarkFig09ErrorsVsSketchLen(b *testing.B) {
	perDay := traffic.IntervalsPerDay5Min
	s := benchScenario(b, perDay, perDay, perDay/4)
	truth, err := eval.GroundTruth(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.SweepErrors(s, truth, []int{6}, []int{10, 50, 200}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10NOCOverhead regenerates the Fig. 10 comparison: the NOC's
// model rebuild from raw windows (m²·n work) vs from sketches (m²·l work),
// measured on the real Gram+eigendecomposition pipeline.
func BenchmarkFig10NOCOverhead(b *testing.B) {
	const m = 81
	for _, rows := range []int{50, 200, 1000, 4032} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := mat.NewMatrix(rows, m)
			for i := 0; i < rows; i++ {
				r := x.RowView(i)
				for j := range r {
					r[j] = rng.NormFloat64()
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mat.SymEigen(x.Gram()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalMonitorUpdate measures the local-monitor cost per interval:
// the four n × l cells earlier PRs recorded, the windows EXPERIMENTS.md
// tabulates (which hold the paper's n = 4032) and the benchmark's deployed
// point. Every cell is warmed with 2n updates first, so a cell times the
// sliding window and not its fill, and reports the elements a flow holds
// beside the time it costs.
func BenchmarkLocalMonitorUpdate(b *testing.B) {
	type cell struct{ w, n, l int }
	cells := []cell{{27, 144, 100}} // bench/'s deployment: 27 flows per monitor
	for _, n := range []int{512, 4096} {
		for _, l := range []int{32, 200} {
			cells = append(cells, cell{9, n, l})
		}
	}
	for _, n := range []int{144, 576, 4032} {
		cells = append(cells, cell{9, n, 100})
	}
	for _, c := range cells {
		b.Run(fmt.Sprintf("w=%d/n=%d/l=%d", c.w, c.n, c.l), func(b *testing.B) {
			gen, err := randproj.NewGenerator(randproj.Config{Seed: 1, SketchLen: c.l, WindowLen: c.n})
			if err != nil {
				b.Fatal(err)
			}
			flowIDs := make([]int, c.w)
			for j := range flowIDs {
				flowIDs[j] = j
			}
			mon, err := core.NewMonitor(core.MonitorConfig{
				FlowIDs: flowIDs, WindowLen: c.n, Gen: gen,
			})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			volumes := make([]float64, c.w)
			t := int64(0)
			update := func() {
				t++
				for j := range volumes {
					volumes[j] = 1000 + 50*rng.NormFloat64()
				}
				if err := mon.Update(t, volumes); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 2*c.n; i++ {
				update()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				update()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.w), "ns/flow")
			b.ReportMetric(float64(mon.StateSize())/float64(c.w), "elements/flow")
		})
	}
}

// BenchmarkInstrumentedSketchUpdate is BenchmarkLocalMonitorUpdate plus the
// exact per-interval observability work internal/monitor performs (latency
// histogram observe, interval counter, VH state-size and last-interval
// gauges). Comparing the two quantifies the instrumentation overhead, which
// must stay under ~5%; EXPERIMENTS.md records the measured numbers.
func BenchmarkInstrumentedSketchUpdate(b *testing.B) {
	const w = 9 // flows per monitor, matching BenchmarkLocalMonitorUpdate
	for _, n := range []int{512, 4096} {
		for _, l := range []int{32, 200} {
			b.Run(fmt.Sprintf("n=%d/l=%d", n, l), func(b *testing.B) {
				gen, err := randproj.NewGenerator(randproj.Config{Seed: 1, SketchLen: l, WindowLen: n})
				if err != nil {
					b.Fatal(err)
				}
				flowIDs := make([]int, w)
				for j := range flowIDs {
					flowIDs[j] = j
				}
				mon, err := core.NewMonitor(core.MonitorConfig{
					FlowIDs: flowIDs, WindowLen: n, Gen: gen,
				})
				if err != nil {
					b.Fatal(err)
				}
				reg := obs.NewRegistry()
				updateSeconds := reg.Histogram("streampca_monitor_update_seconds", "", nil)
				intervals := reg.Counter("streampca_monitor_intervals_total", "")
				vhBuckets := reg.Gauge("streampca_monitor_vh_buckets", "")
				lastInterval := reg.Gauge("streampca_monitor_last_interval", "")
				rng := rand.New(rand.NewSource(2))
				volumes := make([]float64, w)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range volumes {
						volumes[j] = 1000 + 50*rng.NormFloat64()
					}
					start := time.Now()
					if err := mon.Update(int64(i+1), volumes); err != nil {
						b.Fatal(err)
					}
					updateSeconds.Observe(time.Since(start).Seconds())
					vhBuckets.Set(float64(mon.StateSize()))
					intervals.Inc()
					lastInterval.Set(float64(i + 1))
				}
			})
		}
	}
}

// tracedBenchUpdate is one sketch update through the exact span pattern
// monitor.ReportInterval uses: a "monitor.update" span with the interval
// attrs, a sketch_updated event, End. With a nil tracer every trace call is
// a pointer-check no-op — the "off" cell measures precisely that disabled
// cost at a live call site.
func tracedBenchUpdate(tr *trace.Tracer, mon *core.Monitor, t int64, volumes []float64) error {
	sp := tr.Start(trace.ForInterval(t), 0, "monitor.update",
		trace.S("monitor", "bench"),
		trace.I("interval", t),
		trace.I("flows", int64(len(volumes))))
	if err := mon.Update(t, volumes); err != nil {
		sp.Event("update_error", trace.S("err", err.Error()))
		sp.End()
		return err
	}
	sp.Event("sketch_updated", trace.I("vh_buckets", int64(mon.StateSize())))
	sp.End()
	return nil
}

// BenchmarkTracedSketchUpdate quantifies the lineage-tracing tax on the
// monitor's hot path. Three cells, same workload: "base" is the raw sketch
// update with no trace calls at all; "off" threads a nil tracer through the
// instrumented call site (what every untraced deployment pays — the ≤5%
// acceptance bound from PR 6); "on" records the span into an enabled
// tracer's ring.
func BenchmarkTracedSketchUpdate(b *testing.B) {
	const w, n, l = 9, 4096, 32
	newMon := func(b *testing.B) *core.Monitor {
		gen, err := randproj.NewGenerator(randproj.Config{Seed: 1, SketchLen: l, WindowLen: n})
		if err != nil {
			b.Fatal(err)
		}
		flowIDs := make([]int, w)
		for j := range flowIDs {
			flowIDs[j] = j
		}
		mon, err := core.NewMonitor(core.MonitorConfig{
			FlowIDs: flowIDs, WindowLen: n, Gen: gen,
		})
		if err != nil {
			b.Fatal(err)
		}
		return mon
	}
	b.Run("mode=base", func(b *testing.B) {
		mon := newMon(b)
		rng := rand.New(rand.NewSource(2))
		volumes := make([]float64, w)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range volumes {
				volumes[j] = 1000 + 50*rng.NormFloat64()
			}
			if err := mon.Update(int64(i+1), volumes); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, mode := range []struct {
		name   string
		tracer *trace.Tracer
	}{
		{"mode=off", nil},
		{"mode=on", trace.New(trace.Config{Component: "bench"})},
	} {
		b.Run(mode.name, func(b *testing.B) {
			mon := newMon(b)
			rng := rand.New(rand.NewSource(2))
			volumes := make([]float64, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range volumes {
					volumes[j] = 1000 + 50*rng.NormFloat64()
				}
				if err := tracedBenchUpdate(mode.tracer, mon, int64(i+1), volumes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNOCRecompute measures the NOC-side sketch-PCA rebuild (the Gram
// of the smaller side, min(l, m)², its eigenvalues and r = 6 leading vectors)
// across sketch lengths at m = 81, l = 100 being flat-*'s deployed shape and
// the one deployed rebuild on the m×m side, and at l = 100 for fed-wide's
// m = 144 and the wider m = 256 and 1024, all solved on the l×l side. One
// detector rebuilds b.N times, so its reused workspace is warm and B/op is
// what a deployed rebuild allocates.
func BenchmarkNOCRecompute(b *testing.B) {
	type cell struct{ m, l int }
	cells := []cell{{81, 32}, {81, 100}, {81, 128}, {81, 512}, {144, 100}, {256, 100}, {1024, 100}}
	for _, c := range cells {
		m, l := c.m, c.l
		name := fmt.Sprintf("l=%d", l)
		if m != 81 {
			name = fmt.Sprintf("m=%d/l=%d", m, l)
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			sketches := make([][]float64, m)
			means := make([]float64, m)
			for j := range sketches {
				s := make([]float64, l)
				for k := range s {
					s[k] = rng.NormFloat64()
				}
				sketches[j] = s
				means[j] = 1000
			}
			det, err := core.NewDetector(core.DetectorConfig{
				NumFlows: m, WindowLen: 4032, SketchLen: l, Alpha: 0.01, FixedRank: 6,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := det.RebuildModel(sketches, means, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLakhinaRecompute measures the exact method's per-retraining cost
// for contrast with BenchmarkNOCRecompute (the n-vs-l gap of Fig. 10).
func BenchmarkLakhinaRecompute(b *testing.B) {
	const m = 81
	for _, n := range []int{576, 4032} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			x := mat.NewMatrix(n, m)
			for i := 0; i < n; i++ {
				row := x.RowView(i)
				for j := range row {
					row[j] = 1000 + 50*rng.NormFloat64()
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pca.Fit(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVHUpdate isolates a single variance histogram's per-element cost
// at l = 100: at the benchmark workloads' n = 144, at n = 2 048 and at the
// sketchpca-noc default n = 4 032. It reports B/flow, the live heap one
// histogram holds after 3n updates of the same stream (the row ring, shared
// by a monitor's flows, is left out).
func BenchmarkVHUpdate(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{
		{"n=144", 144},
		{"n=2048", 2048},
		{"noc-default", 4032},
	} {
		perFlow := -1.0
		b.Run(c.name, func(b *testing.B) {
			gen, err := randproj.NewGenerator(randproj.Config{Seed: 1, SketchLen: 100})
			if err != nil {
				b.Fatal(err)
			}
			ring, err := randproj.NewRing(gen, c.n)
			if err != nil {
				b.Fatal(err)
			}
			cfg := vh.Config{WindowLen: c.n, Gen: ring}
			feed := func(h *vh.Histogram, updates int) {
				rng := rand.New(rand.NewSource(5))
				for i := 0; i < updates; i++ {
					if err := h.Update(int64(i+1), 100+rng.NormFloat64()); err != nil {
						b.Fatal(err)
					}
				}
			}
			if perFlow < 0 {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				kept, err := vh.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				feed(kept, 3*c.n)
				runtime.GC()
				runtime.ReadMemStats(&after)
				perFlow = float64(after.HeapAlloc) - float64(before.HeapAlloc)
				runtime.KeepAlive(kept)
			}

			h, err := vh.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			feed(h, b.N)
			b.StopTimer()
			b.ReportMetric(perFlow, "B/flow")
		})
	}
}

// BenchmarkQStatistic measures the threshold computation.
func BenchmarkQStatistic(b *testing.B) {
	sv := make([]float64, 81)
	v := 1000.0
	for i := range sv {
		sv[i] = v
		v *= 0.85
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.QStatistic(sv, 4032, 6, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorDistance measures the per-interval O(m²) detection cost
// at the NOC.
func BenchmarkDetectorDistance(b *testing.B) {
	const m, l = 81, 128
	rng := rand.New(rand.NewSource(6))
	sketches := make([][]float64, m)
	means := make([]float64, m)
	for j := range sketches {
		s := make([]float64, l)
		for k := range s {
			s[k] = rng.NormFloat64()
		}
		sketches[j] = s
	}
	det, err := core.NewDetector(core.DetectorConfig{
		NumFlows: m, WindowLen: 4032, SketchLen: l, Alpha: 0.01, FixedRank: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := det.RebuildModel(sketches, means, 1); err != nil {
		b.Fatal(err)
	}
	x := make([]float64, m)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Distance(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIdentify measures the anomography pursuit on an alarmed
// measurement: per selection round an m-coordinate residual read plus a
// k×k least-squares refit, so the cost grows with both the flow count and
// the culprit budget. Twelve spiked flows keep the residual above the
// Q-threshold through every round, so the k=8 cells do the full eight
// selections rather than stopping early — the worst case.
func BenchmarkIdentify(b *testing.B) {
	for _, m := range []int{64, 256} {
		const l = 128
		rng := rand.New(rand.NewSource(11))
		sketches := make([][]float64, m)
		means := make([]float64, m)
		for j := range sketches {
			s := make([]float64, l)
			for k := range s {
				s[k] = rng.NormFloat64()
			}
			sketches[j] = s
		}
		det, err := core.NewDetector(core.DetectorConfig{
			NumFlows: m, WindowLen: 4032, SketchLen: l, Alpha: 0.01, FixedRank: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := det.RebuildModel(sketches, means, 1); err != nil {
			b.Fatal(err)
		}
		x := make([]float64, m)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		for s := 0; s < 12; s++ {
			x[(s*m)/12] += 500
		}
		for _, k := range []int{1, 8} {
			b.Run(fmt.Sprintf("m=%d/k=%d", m, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					id, err := det.Identify(x, k)
					if err != nil {
						b.Fatal(err)
					}
					if len(id.Flows) == 0 {
						b.Fatal("pursuit identified nothing — the cell is not measuring selection work")
					}
				}
			})
		}
	}
}

// BenchmarkSymEigen sizes the eigensolvers: the all-pairs Householder + QL
// solver the exact references run, at the model sizes the benchmark deploys
// (m = 81, 144) and at 256; under leading/ the factorization the NOC rebuild
// runs, all eigenvalues and the r = 6 leading vectors, at the same sizes and
// at 100, the l×l side of an l = 100 sketch.
func BenchmarkSymEigen(b *testing.B) {
	bench := func(solve func(*mat.Matrix) (*mat.EigenSym, error), n int) func(b *testing.B) {
		return func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			a := mat.NewMatrix(n, n)
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					v := rng.NormFloat64()
					a.Set(i, j, v)
					a.Set(j, i, v)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solve(a); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, n := range []int{20, 81} {
		b.Run(fmt.Sprintf("n=%d", n), bench(mat.SymEigen, n))
	}
	for _, n := range []int{64, 144, 256} {
		b.Run(fmt.Sprintf("m=%d", n), bench(mat.SymEigen, n))
	}
	leading := func(a *mat.Matrix) (*mat.EigenSym, error) {
		f, err := mat.SymEigenLeading(a)
		if err != nil {
			return nil, err
		}
		v, err := f.Vectors(6)
		return &mat.EigenSym{Values: f.Values, Vectors: v}, err
	}
	for _, n := range []int{81, 100, 144, 256} {
		b.Run(fmt.Sprintf("leading/k=6/m=%d", n), bench(leading, n))
	}
}

// BenchmarkGram sizes the Gram kernel: the sketch matrix shape is rows×m,
// with rows = 200 (the paper's default sketch length) and m the network-wide
// flow count, and at the two shapes the NOC rebuild builds: fed-wide's m = 144
// sketches of l = 100 make the 100×100 ẐẐᵀ, the flat deployments' l = 100
// sketch rows of m = 81 the 81×81 ẐᵀẐ.
func BenchmarkGram(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	for _, c := range []struct{ rows, m int }{{200, 64}, {200, 256}, {144, 100}, {100, 81}} {
		z := mat.NewMatrix(c.rows, c.m)
		for i := 0; i < c.rows; i++ {
			row := z.RowView(i)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
		}
		name := fmt.Sprintf("m=%d", c.m)
		if c.rows != 200 {
			name = fmt.Sprintf("rows=%d/m=%d", c.rows, c.m)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = z.Gram()
			}
		})
	}
}

// BenchmarkMonitorUpdate sizes the per-interval sketch update at a
// fat-monitor flow count (1024 flows on one box, n = 4096) and at the
// deployed monitor shapes, n = 144, l = 100: 27 flows (the flat-* workloads'
// monitors) and 24 (fed-wide's). The deployed cells first fill their window
// twice, so every timed update expires one element.
func BenchmarkMonitorUpdate(b *testing.B) {
	for _, c := range []struct{ flows, window, warm int }{
		{1024, 4096, 0},
		{27, 144, 2 * 144},
		{24, 144, 2 * 144},
	} {
		b.Run(fmt.Sprintf("flows=%d/n=%d", c.flows, c.window), func(b *testing.B) {
			gen, err := randproj.NewGenerator(randproj.Config{Seed: 1, SketchLen: 100, WindowLen: c.window})
			if err != nil {
				b.Fatal(err)
			}
			flowIDs := make([]int, c.flows)
			for j := range flowIDs {
				flowIDs[j] = j
			}
			mon, err := core.NewMonitor(core.MonitorConfig{
				FlowIDs: flowIDs, WindowLen: c.window, Gen: gen,
			})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			volumes := make([]float64, c.flows)
			for i := 0; i < c.warm+b.N; i++ {
				if i == c.warm {
					b.ResetTimer()
				}
				for j := range volumes {
					volumes[j] = 1000 + 50*rng.NormFloat64()
				}
				if err := mon.Update(int64(i+1), volumes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFDUpdate measures the Frequent Directions sketcher's per-interval
// cost at fat-monitor flow counts. Each iteration appends one centered row;
// the ℓ-amortized shrink (a 2ℓ×2ℓ eigensolve plus the buffer rescale) is
// folded into the average, so the cell reports
// the steady-state per-interval cost, not the append-only fast path.
func BenchmarkFDUpdate(b *testing.B) {
	for _, m := range []int{64, 256} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			flowIDs := make([]int, m)
			for j := range flowIDs {
				flowIDs[j] = j
			}
			fd, err := sketch.NewFD(sketch.Config{FlowIDs: flowIDs})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(16))
			volumes := make([]float64, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range volumes {
					volumes[j] = 1000 + 50*rng.NormFloat64()
				}
				if err := fd.Update(int64(i+1), volumes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFDModelBuild measures the FD-family NOC retrain: per-block
// small-side eigensolves (≤ 2ℓ×2ℓ each) over the monitors' basis blocks plus
// the global spectrum merge. Compare the m=256 cell with the randproj full
// rebuild at the same m (BenchmarkGram + BenchmarkSymEigen) for the
// retrain-cost advantage of the family.
func BenchmarkFDModelBuild(b *testing.B) {
	const flowsPerBlock = 32 // ℓ = DefaultEll(32) = 12, so 2ℓ < w: real truncation
	for _, m := range []int{64, 256} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(18))
			numBlocks := m / flowsPerBlock
			blocks := make([]sketch.Snapshot, numBlocks)
			for bi := 0; bi < numBlocks; bi++ {
				flowIDs := make([]int, flowsPerBlock)
				for j := range flowIDs {
					flowIDs[j] = bi*flowsPerBlock + j
				}
				fd, err := sketch.NewFD(sketch.Config{FlowIDs: flowIDs})
				if err != nil {
					b.Fatal(err)
				}
				volumes := make([]float64, flowsPerBlock)
				for t := 1; t <= 96; t++ { // several shrink cycles deep
					for j := range volumes {
						volumes[j] = 1000 + 50*rng.NormFloat64()
					}
					if err := fd.Update(int64(t), volumes); err != nil {
						b.Fatal(err)
					}
				}
				blocks[bi] = fd.Snapshot()
			}
			det, err := core.NewDetector(core.DetectorConfig{
				NumFlows: m, WindowLen: 4032,
				SketchLen: sketch.DefaultEll(flowsPerBlock), Alpha: 0.01,
				FixedRank: 6, Family: sketch.FamilyFD,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := det.RebuildFD(blocks, int64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalVsBatchPCA ablates the incremental sliding-window PCA
// against refitting from scratch (the trick that makes exact ground-truth
// labeling affordable).
func BenchmarkIncrementalVsBatchPCA(b *testing.B) {
	const n, m = 576, 81
	rng := rand.New(rand.NewSource(9))
	rows := make([][]float64, 2*n)
	for i := range rows {
		row := make([]float64, m)
		for j := range row {
			row[j] = 1000 + 50*rng.NormFloat64()
		}
		rows[i] = row
	}
	b.Run("incremental", func(b *testing.B) {
		inc, err := pca.NewIncremental(n, m)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows[:n] {
			if err := inc.Push(row); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := inc.Push(rows[n+i%n]); err != nil {
				b.Fatal(err)
			}
			if _, err := inc.Model(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		x := mat.NewMatrix(n, m)
		for i := 0; i < n; i++ {
			copy(x.RowView(i), rows[i])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(x.RowView(i%n), rows[n+i%n]) // slide one row
			if _, err := pca.Fit(x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDeploymentStep measures one full interval through a flat
// deployment of nine monitors on loopback TCP (monitor updates, volume
// reports, the NOC's lazy observation and its decision).
func BenchmarkDeploymentStep(b *testing.B) {
	const m, window = 81, 288
	d, err := Deploy(NOCConfig{
		Detector: DetectorConfig{NumFlows: m, WindowLen: window, SketchLen: 100, Alpha: 0.01, FixedRank: 6},
		Seed:     1,
	}, Topology{Monitors: 9})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(10))
	base := make([]float64, m)
	for j := range base {
		base[j] = 1e6 * (1 + 0.5*rng.Float64())
	}
	volumes := make([]float64, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range volumes {
			volumes[j] = base[j] * (1 + 0.05*rng.NormFloat64())
		}
		if _, err := d.Step(int64(i+1), volumes); err != nil {
			b.Fatal(err)
		}
	}
}

// loopStream is a transport.Conn stream whose two ends are one buffer, so a
// Send followed by a Recv is the envelope codec and nothing else.
type loopStream struct{ bytes.Buffer }

func (*loopStream) Close() error { return nil }

// BenchmarkSketchResponseCodec round-trips one randproj SketchResponse
// through a transport.Conn on a buffer (Send, then Recv into fresh values),
// at the shard widths of the fed-wide benchmark workload (24 flows per
// monitor, 48 per aggregator) and its l = 100. B/msg is the encoded size of
// one response.
func BenchmarkSketchResponseCodec(b *testing.B) {
	const l = 100
	for _, flows := range []int{24, 48} {
		b.Run(fmt.Sprintf("flows=%d/l=%d", flows, l), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(flows)))
			rep := core.SketchReport{Interval: 1}
			for f := 0; f < flows; f++ {
				col := make([]float64, l)
				for i := range col {
					col[i] = 1e5 * rng.NormFloat64()
				}
				rep.FlowIDs = append(rep.FlowIDs, f)
				rep.Sketches = append(rep.Sketches, col)
				rep.Means = append(rep.Means, 1e6*rng.Float64())
				rep.Counts = append(rep.Counts, 144)
			}
			stream := &loopStream{}
			conn := transport.NewConnWithMetrics(stream, nil)
			resp := transport.Envelope{Response: &transport.SketchResponse{RequestID: 1, MonitorID: "m", Report: rep}}
			if err := conn.Send(resp); err != nil { // the first carries the preamble
				b.Fatal(err)
			}
			if _, err := conn.Recv(); err != nil {
				b.Fatal(err)
			}
			var size int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := conn.Send(resp); err != nil {
					b.Fatal(err)
				}
				size += stream.Len()
				got, err := conn.Recv()
				if err != nil {
					b.Fatal(err)
				}
				codecSink = got
			}
			b.ReportMetric(float64(size)/float64(b.N), "B/msg")
		})
	}
}

var codecSink transport.Envelope

// TestWideClusterIdentifiesInjectedFlow runs eight striped monitors and a
// detector at the width BenchmarkNOCRecompute's widest cell times, m = 1024
// flows sketched at l = 100, where the NOC solves the l×l side: after a
// window of rank-4 traffic, one interval with one flow spiked must alarm and
// identify exactly that flow.
func TestWideClusterIdentifiesInjectedFlow(t *testing.T) {
	const m, n, l, factors, spiked = 1024, 144, 100, 4, 613
	flows, p, err := core.Params{NumFlows: m, WindowLen: n, SketchLen: l, Seed: 1}.Stripe(8)
	if err != nil {
		t.Fatal(err)
	}
	mons := make([]*Monitor, len(flows))
	for i := range mons {
		if mons[i], err = p.NewMonitor(flows[i]); err != nil {
			t.Fatal(err)
		}
	}
	det, err := NewDetector(DetectorConfig{NumFlows: m, WindowLen: n, SketchLen: l, Alpha: 0.01, FixedRank: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	base := make([]float64, m)
	loads := make([][]float64, m)
	for j := range base {
		base[j] = 1000 * (1 + rng.Float64())
		loads[j] = make([]float64, factors)
		for k := range loads[j] {
			loads[j][k] = 50 * rng.NormFloat64()
		}
	}
	row := func() []float64 {
		f := make([]float64, factors)
		for k := range f {
			f[k] = rng.NormFloat64()
		}
		x := make([]float64, m)
		for j := range x {
			x[j] = base[j] + 5*rng.NormFloat64()
			for k, w := range loads[j] {
				x[j] += w * f[k]
			}
		}
		return x
	}
	for i := 1; i <= n; i++ {
		x := row()
		for s, mon := range mons {
			local := make([]float64, len(flows[s]))
			for k, f := range flows[s] {
				local[k] = x[f]
			}
			if err := mon.Update(int64(i), local); err != nil {
				t.Fatal(err)
			}
		}
	}
	x := row()
	x[spiked] += 2000
	dec, err := det.Observe(x, func() (core.Fetch, error) { return p.Fetch(mons...) })
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Anomalous {
		t.Fatalf("spiked interval not alarmed: distance %v, threshold %v", dec.Distance, dec.Threshold)
	}
	for j, s := range det.Model().Singular[l:] {
		if s != 0 {
			t.Fatalf("λ̂_%d = %v: the model was not solved on the l×l side", l+j, s)
		}
	}
	id, err := det.Identify(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(id.Flows) != 1 || id.Flows[0].Flow != spiked {
		t.Fatalf("identified %+v, want flow %d alone", id.Flows, spiked)
	}
}
