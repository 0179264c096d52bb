package streampca

// Benchmark harness: one benchmark per evaluation figure of the paper plus
// the Theorem 1 complexity microbenchmarks and ablations over the design
// choices called out in DESIGN.md. The figure benchmarks run the same code
// paths as cmd/abilene-eval on reduced dimensions so the whole suite
// completes in minutes; the binary regenerates the full-size figures.

import (
	"fmt"
	"math/rand"
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
		Alpha: 0.01, Epsilon: 0.01, Seed: 9, RefitEvery: 16,
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

// BenchmarkLocalMonitorUpdate measures the Theorem 1 local-monitor cost
// O(w·log n) per interval: the four ε = 0.1 cells earlier PRs recorded, the
// n × ε grid EXPERIMENTS.md tabulates (which holds the paper's point,
// n = 4032, ε = 0.01) and the benchmark's deployed point. Every cell is
// warmed with 2n updates first, so a cell times the sliding window and not
// its fill, and reports the buckets a flow holds beside the time it costs.
func BenchmarkLocalMonitorUpdate(b *testing.B) {
	type cell struct {
		w, n, l int
		eps     float64
	}
	cells := []cell{{27, 144, 100, 0.02}} // bench/'s deployment: 27 flows per monitor
	for _, n := range []int{512, 4096} {
		for _, l := range []int{32, 200} {
			cells = append(cells, cell{9, n, l, 0.1})
		}
	}
	for _, n := range []int{144, 576, 4032} {
		for _, eps := range []float64{0.01, 0.02, 0.1} {
			cells = append(cells, cell{9, n, 100, eps})
		}
	}
	for _, c := range cells {
		b.Run(fmt.Sprintf("w=%d/n=%d/l=%d/eps=%v", c.w, c.n, c.l, c.eps), func(b *testing.B) {
			gen, err := randproj.NewGenerator(randproj.Config{Seed: 1, SketchLen: c.l, WindowLen: c.n})
			if err != nil {
				b.Fatal(err)
			}
			flowIDs := make([]int, c.w)
			for j := range flowIDs {
				flowIDs[j] = j
			}
			mon, err := core.NewMonitor(core.MonitorConfig{
				FlowIDs: flowIDs, WindowLen: c.n, Epsilon: c.eps, Gen: gen,
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
			b.ReportMetric(float64(mon.NumBucketsTotal())/float64(c.w), "buckets/flow")
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
					FlowIDs: flowIDs, WindowLen: n, Epsilon: 0.1, Gen: gen,
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
					vhBuckets.Set(float64(mon.NumBucketsTotal()))
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
	sp.Event("sketch_updated", trace.I("vh_buckets", int64(mon.NumBucketsTotal())))
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
			FlowIDs: flowIDs, WindowLen: n, Epsilon: 0.1, Gen: gen,
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

// BenchmarkNOCRecompute measures the NOC-side sketch-PCA rebuild
// (O(m²·l) + eigendecomposition) across sketch lengths.
func BenchmarkNOCRecompute(b *testing.B) {
	const m = 81
	for _, l := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
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
// across ε (ablation: merge aggressiveness vs bucket count).
func BenchmarkVHUpdate(b *testing.B) {
	for _, eps := range []float64{0.01, 0.1, 0.5} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			gen, err := randproj.NewGenerator(randproj.Config{Seed: 1, SketchLen: 64})
			if err != nil {
				b.Fatal(err)
			}
			ring, err := randproj.NewRing(gen, 2048)
			if err != nil {
				b.Fatal(err)
			}
			h, err := vh.New(vh.Config{WindowLen: 2048, Epsilon: eps, Gen: ring})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.Update(int64(i+1), 100+rng.NormFloat64()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(h.NumBuckets()), "buckets")
		})
	}
}

// BenchmarkSketchDistributions ablates the projection family (§V-B): the
// Gaussian draw needs an inverse-CDF evaluation, tug-of-war a coin flip and
// the sparse families mostly skip work.
func BenchmarkSketchDistributions(b *testing.B) {
	configs := map[string]randproj.Config{
		"gaussian":    {Seed: 1, SketchLen: 256},
		"tug-of-war":  {Seed: 1, SketchLen: 256, Dist: randproj.TugOfWar},
		"sparse-s3":   {Seed: 1, SketchLen: 256, Dist: randproj.Sparse, SparseS: 3},
		"very-sparse": {Seed: 1, SketchLen: 256, Dist: randproj.VerySparse, WindowLen: 4096},
	}
	for name, cfg := range configs {
		b.Run(name, func(b *testing.B) {
			gen, err := randproj.NewGenerator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = gen.Row(int64(i))
			}
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

// BenchmarkSymEigen sizes the eigensolvers: the Householder + QL solver the
// NOC rebuild runs, at the model sizes the benchmark deploys (m = 81, 144)
// and the one it cannot yet afford (256), and under jacobi/ the FD-only
// Jacobi kernel at its real size (2ℓ = 16) and at n = 81 for contrast.
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
	for _, n := range []int{16, 81} {
		b.Run(fmt.Sprintf("jacobi/n=%d", n), bench(mat.SymEigenJacobi, n))
	}
}

// BenchmarkGram sizes the Gram kernel: the sketch matrix shape is l×m with
// l=200 (the paper's default sketch length) and m the network-wide flow
// count.
func BenchmarkGram(b *testing.B) {
	const l = 200
	rng := rand.New(rand.NewSource(14))
	for _, m := range []int{64, 256} {
		z := mat.NewMatrix(l, m)
		for i := 0; i < l; i++ {
			row := z.RowView(i)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = z.Gram()
			}
		})
	}
}

// BenchmarkMul sizes the k-blocked Mul kernel on a NOC-shaped product (model
// projection: a tall window panel times a flow-space operator). The inner
// dimension exceeds one L2 panel of the right operand, so the k-blocking
// path is exercised.
func BenchmarkMul(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	const rows, inner, cols = 200, 1024, 256
	a := mat.NewMatrix(rows, inner)
	for i := 0; i < rows; i++ {
		row := a.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	o := mat.NewMatrix(inner, cols)
	for i := 0; i < inner; i++ {
		row := o.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	b.Run(fmt.Sprintf("shape=%dx%dx%d", rows, inner, cols), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.Mul(o); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMonitorUpdate sizes the per-interval sketch update at a
// fat-monitor flow count (1024 flows on one box).
func BenchmarkMonitorUpdate(b *testing.B) {
	const flows = 1024
	const window = 4096
	b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
		gen, err := randproj.NewGenerator(randproj.Config{Seed: 1, SketchLen: 100, WindowLen: window})
		if err != nil {
			b.Fatal(err)
		}
		flowIDs := make([]int, flows)
		for j := range flowIDs {
			flowIDs[j] = j
		}
		mon, err := core.NewMonitor(core.MonitorConfig{
			FlowIDs: flowIDs, WindowLen: window, Epsilon: 0.1, Gen: gen,
		})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		volumes := make([]float64, flows)
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

// BenchmarkClusterStep measures one full interval through the in-process
// cluster (monitor updates + lazy NOC observation).
func BenchmarkClusterStep(b *testing.B) {
	const m, window = 81, 288
	cl, err := NewCluster(ClusterConfig{
		NumFlows: m, NumMonitors: 9, WindowLen: window, Epsilon: 0.05, Alpha: 0.01,
		Sketch: SketchConfig{Seed: 1, SketchLen: 100}, FixedRank: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
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
		if _, err := cl.Step(int64(i+1), volumes); err != nil {
			b.Fatal(err)
		}
	}
}
