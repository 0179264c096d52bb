package oracle

import (
	"math"
	"math/rand"
	"testing"

	"streampca/internal/core"
	"streampca/internal/obs"
	"streampca/internal/randproj"
	"streampca/internal/vh"
)

// traffic families for the adversarial Lemma 1 / exactness property suite.
type trafficGen struct {
	name string
	next func(r *rand.Rand, t int64) float64
}

func trafficGens() []trafficGen {
	return []trafficGen{
		{"random-walk", func(r *rand.Rand, t int64) float64 {
			return 100 + 10*math.Sin(float64(t)/17) + r.NormFloat64()
		}},
		{"constant", func(r *rand.Rand, t int64) float64 {
			return 42.5
		}},
		{"step-change", func(r *rand.Rand, t int64) float64 {
			// Level shifts by three orders of magnitude every 50 intervals.
			base := 1.0
			if (t/50)%2 == 1 {
				base = 1000
			}
			return base * (1 + 0.01*r.Float64())
		}},
		{"heavy-tail", func(r *rand.Rand, t int64) float64 {
			x := 1 + r.Float64()
			if r.Float64() < 0.02 {
				x *= 1e6 // volume spike
			}
			return x
		}},
	}
}

func newGen(t *testing.T, dist randproj.Distribution, l, n int, seed uint64) *randproj.Generator {
	t.Helper()
	g, err := randproj.NewGenerator(randproj.Config{
		Seed: seed, SketchLen: l, Dist: dist, SparseS: 3, WindowLen: n,
	})
	if err != nil {
		t.Fatalf("generator(%v): %v", dist, err)
	}
	return g
}

// newHist builds a stand-alone histogram with a private row ring over g. The
// checks keep reading g itself: the reference must not read the ring it checks.
func newHist(t *testing.T, n int, eps float64, g *randproj.Generator) *vh.Histogram {
	t.Helper()
	ring, err := randproj.NewRing(g, n)
	if err != nil {
		t.Fatal(err)
	}
	h, err := vh.New(vh.Config{WindowLen: n, Epsilon: eps, Gen: ring})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestCheckHistogramProperty sweeps all four projection families, ε values
// (including the adversarial sweep ε ∈ {0.05, 0.1, 0.3}) and window/sketch
// sizes over the adversarial traffic families, asserting the full histogram
// check — exactness to rounding error plus Lemma 1 — on every sampled
// interval.
func TestCheckHistogramProperty(t *testing.T) {
	dists := []randproj.Distribution{
		randproj.Gaussian, randproj.TugOfWar, randproj.Sparse, randproj.VerySparse,
	}
	for _, dist := range dists {
		for _, eps := range []float64{0.05, 0.1, 0.3} {
			for _, dims := range []struct{ n, l int }{{64, 8}, {256, 32}} {
				for _, tg := range trafficGens() {
					g := newGen(t, dist, dims.l, dims.n, 0x5eed)
					h := newHist(t, dims.n, eps, g)
					w := NewWindow(dims.n)
					r := rand.New(rand.NewSource(int64(dims.n)*31 + int64(eps*1000)))
					steps := int64(3*dims.n + 17)
					for ti := int64(1); ti <= steps; ti++ {
						x := tg.next(r, ti)
						if err := h.Update(ti, x); err != nil {
							t.Fatal(err)
						}
						w.Push(ti, x)
						if ti%13 != 0 && ti != steps {
							continue
						}
						res := CheckHistogram(h, w, g, eps)
						if res.Checks == 0 {
							t.Fatalf("%v/%s eps=%v: no checks ran", dist, tg.name, eps)
						}
						if len(res.Violations) > 0 {
							t.Fatalf("%v/%s eps=%v n=%d l=%d t=%d: %v",
								dist, tg.name, eps, dims.n, dims.l, ti, res.Worst())
						}
					}
				}
			}
		}
	}
}

// TestCheckHistogramDetectsMutations asserts the oracle actually has teeth:
// plausible implementation bugs must produce violations, not silent passes.
func TestCheckHistogramDetectsMutations(t *testing.T) {
	const n, l, eps = 128, 16, 0.3

	// run merges checks over many intervals: bucket expiry (the lossy step)
	// only intermittently leaves the covered set short of the full window, so
	// a single end-of-run probe can land on a fully-covered interval.
	run := func(g, oracleGen *randproj.Generator, checkEps float64) Result {
		h := newHist(t, n, eps, g)
		w := NewWindow(n)
		r := rand.New(rand.NewSource(11))
		var res Result
		for ti := int64(1); ti <= 3*n; ti++ {
			x := 50 + 40*math.Sin(float64(ti)/9) + r.NormFloat64()
			if err := h.Update(ti, x); err != nil {
				t.Fatal(err)
			}
			w.Push(ti, x)
			if ti > n && ti%5 == 0 {
				res.Merge(CheckHistogram(h, w, oracleGen, checkEps))
			}
		}
		return res
	}

	g := newGen(t, randproj.Gaussian, l, n, 1)
	if res := run(g, g, eps); len(res.Violations) > 0 {
		t.Fatalf("control run violated: %v", res.Worst())
	}

	// Mutation 1: the pipeline and the oracle disagree on the projection
	// (models a dropped/duplicated scale factor or a seed mismatch — any
	// corruption of the partial sums). The sketch exactness check must fire.
	wrong := newGen(t, randproj.Gaussian, l, n, 2)
	res := run(g, wrong, eps)
	found := false
	for _, v := range res.Violations {
		if v.Check == "vh-sketch-exact" {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupted projection not detected: %+v", res.Violations)
	}

	// Mutation 2: claiming a tighter ε than the histogram honors. The merge
	// rules only fire once n_A ≤ (ε/10)·n_B is satisfiable under the
	// half-window cap — i.e. for n > 40/ε — so use a window large enough
	// that constant stretches actually merge into multi-element buckets.
	// When a step change then crosses the window, expiry drops several
	// still-covered elements at once: V̂ < V by a real margin the ε = 0.3
	// bound allows but an ε = 0 claim must flag.
	const n2 = 512
	g2 := newGen(t, randproj.Gaussian, l, n2, 1)
	h := newHist(t, n2, eps, g2)
	w := NewWindow(n2)
	var strict, honest Result
	for ti := int64(1); ti <= 4*n2; ti++ {
		x := 1.0
		if (ti/n2)%2 == 1 {
			x = 1001
		}
		if err := h.Update(ti, x); err != nil {
			t.Fatal(err)
		}
		w.Push(ti, x)
		if ti > n2 {
			strict.Merge(CheckHistogram(h, w, g2, 0))
			honest.Merge(CheckHistogram(h, w, g2, eps))
		}
	}
	if len(honest.Violations) > 0 {
		t.Fatalf("true-eps control violated on step traffic: %v", honest.Worst())
	}
	found = false
	for _, v := range strict.Violations {
		if v.Check == "lemma1-lower" {
			found = true
		} else {
			t.Fatalf("eps=0 claim tripped an unexpected check: %v", v)
		}
	}
	if !found {
		t.Fatal("eps=0 claim against a lossy histogram not detected")
	}
}

// pipeline is one end-to-end sketch-PCA stack over synthetic correlated
// traffic, plus the oracle shadow state, for the spectral checks.
type pipeline struct {
	m, n, l int
	gen     *randproj.Generator
	mon     *core.Monitor
	det     *core.Detector
	vw      *VectorWindow
	r       *rand.Rand
}

func newPipeline(t *testing.T, m, n, l, rank int) *pipeline {
	t.Helper()
	gen := newGen(t, randproj.Gaussian, l, n, 7)
	flowIDs := make([]int, m)
	for i := range flowIDs {
		flowIDs[i] = i
	}
	mon, err := core.NewMonitor(core.MonitorConfig{
		FlowIDs: flowIDs, WindowLen: n, Epsilon: 0.1, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(core.DetectorConfig{
		NumFlows: m, WindowLen: n, SketchLen: l,
		Alpha: 0.01, Mode: core.RankFixed, FixedRank: rank,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &pipeline{
		m: m, n: n, l: l, gen: gen, mon: mon, det: det,
		vw: NewVectorWindow(n, m, 0),
		r:  rand.New(rand.NewSource(23)),
	}
}

// vector draws one network-wide measurement: a few shared low-rank factors
// plus per-flow noise, so the window has a meaningful normal subspace.
func (p *pipeline) vector(ti int64) []float64 {
	f1 := math.Sin(float64(ti) / 11)
	f2 := math.Cos(float64(ti) / 29)
	x := make([]float64, p.m)
	for j := range x {
		x[j] = 100 + 40*f1*float64(1+j%3) + 25*f2*float64(1+j%5) + 2*p.r.NormFloat64()
	}
	return x
}

func (p *pipeline) fetch() (core.Fetch, error) {
	rep := p.mon.Report()
	return core.Fetch{Sketches: rep.Sketches, Means: rep.Means, Interval: rep.Interval}, nil
}

// TestCheckModelEndToEnd drives the full stack and asserts the spectral
// bounds (Lemmas 5–6), Theorem 2 and alarm agreement hold on sampled
// intervals, and that a deliberate mutation — dropping the 1/√l sketch scale,
// i.e. every singular value inflated by √l — is caught.
func TestCheckModelEndToEnd(t *testing.T) {
	const m, n, l, rank = 24, 48, 24, 2
	p := newPipeline(t, m, n, l, rank)
	cfg := ModelCheckConfig{Epsilon: 0.1, Alpha: 0.01, SketchLen: l}

	checked := 0
	var lastDec core.Decision
	var lastX []float64
	for ti := int64(1); ti <= int64(4*n); ti++ {
		x := p.vector(ti)
		if err := p.mon.Update(ti, x); err != nil {
			t.Fatal(err)
		}
		p.vw.Push(ti, x)
		if ti < int64(n) {
			continue
		}
		dec, err := p.det.Observe(x, p.fetch)
		if err != nil {
			t.Fatal(err)
		}
		lastDec, lastX = dec, x
		if ti%7 != 0 {
			continue
		}
		res, ok := CheckModel(p.det.Model(), dec, x, p.vw, cfg)
		if !ok {
			continue
		}
		checked++
		if len(res.Violations) > 0 {
			t.Fatalf("t=%d: %v", ti, res.Worst())
		}
		if res.Checks < 3 {
			t.Fatalf("t=%d: only %d spectral checks ran", ti, res.Checks)
		}
	}
	if checked < 5 {
		t.Fatalf("only %d model checks completed", checked)
	}

	// Mutation: drop the 1/√l normalization — every λ̂ inflates by √l.
	// Lemma 5 (and 6) must catch it.
	mut := *p.det.Model()
	mut.Singular = append([]float64(nil), mut.Singular...)
	for j := range mut.Singular {
		mut.Singular[j] *= math.Sqrt(float64(l))
	}
	res, ok := CheckModel(&mut, lastDec, lastX, p.vw, cfg)
	if !ok {
		t.Fatal("mutated model check skipped")
	}
	hit := map[string]bool{}
	for _, v := range res.Violations {
		hit[v.Check] = true
	}
	if !hit["lemma5"] || !hit["lemma6"] {
		t.Fatalf("dropped 1/√l scale not detected (violations: %+v)", res.Violations)
	}
}

// TestCheckerSampling exercises the daemon-embedded Checker: shadow state on
// every interval, checks only on sampled ones, metrics wired, violations
// surfaced through the counters when the pipeline is corrupted.
func TestCheckerSampling(t *testing.T) {
	const m, n, l = 8, 32, 8
	gen := newGen(t, randproj.TugOfWar, l, n, 3)
	flowIDs := make([]int, m)
	for i := range flowIDs {
		flowIDs[i] = i
	}
	mon, err := core.NewMonitor(core.MonitorConfig{
		FlowIDs: flowIDs, WindowLen: n, Epsilon: 0.1, Gen: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	chk, err := NewChecker(CheckerConfig{
		Every: 5, WindowLen: n, Epsilon: 0.1, Gen: gen,
		NumFlows: m, Component: "monitor", Reg: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for ti := int64(1); ti <= 3*n; ti++ {
		x := make([]float64, m)
		for j := range x {
			x[j] = 10 + r.NormFloat64()
		}
		if err := mon.Update(ti, x); err != nil {
			t.Fatal(err)
		}
		res := chk.ObserveMonitor(ti, x, mon)
		if !chk.Due(ti) && res.Checks != 0 {
			t.Fatalf("t=%d: unsampled interval ran %d checks", ti, res.Checks)
		}
	}
	checks := reg.Counter("streampca_monitor_oracle_checks_total", "").Value()
	viol := reg.Counter("streampca_monitor_oracle_violations_total", "").Value()
	if checks == 0 {
		t.Fatal("no oracle checks recorded")
	}
	if viol != 0 {
		t.Fatalf("healthy pipeline recorded %d violations", viol)
	}

	// A checker shadowing with the wrong generator must count violations.
	bad, err := NewChecker(CheckerConfig{
		Every: 5, WindowLen: n, Epsilon: 0.1,
		Gen:      newGen(t, randproj.TugOfWar, l, n, 99),
		NumFlows: m, Component: "noc", Reg: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for ti := int64(1); ti <= 2*n; ti++ {
		x := make([]float64, m)
		for j := range x {
			x[j] = 10 + r.NormFloat64()
		}
		if err := mon.Update(3*n+ti, x); err != nil {
			t.Fatal(err)
		}
		bad.ObserveMonitor(3*n+ti, x, mon)
	}
	if v := reg.Counter("streampca_noc_oracle_violations_total", "").Value(); v == 0 {
		t.Fatal("wrong-generator checker recorded no violations")
	}
	if g := reg.Gauge("streampca_noc_oracle_max_rel_err", "").Value(); g <= 0 {
		t.Fatalf("max_rel_err gauge = %v, want > 0", g)
	}
}

// TestCheckerNOCObserve wires the NOC side of the Checker through the full
// detector and asserts sampled intervals produce clean spectral checks.
func TestCheckerNOCObserve(t *testing.T) {
	const m, n, l, rank = 16, 40, 16, 2
	p := newPipeline(t, m, n, l, rank)
	reg := obs.NewRegistry()
	chk, err := NewChecker(CheckerConfig{
		Every: 4, WindowLen: n, Epsilon: 0.1, Alpha: 0.01,
		Gen: p.gen, NumFlows: m, Component: "noc", Reg: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for ti := int64(1); ti <= int64(4*n); ti++ {
		x := p.vector(ti)
		if err := p.mon.Update(ti, x); err != nil {
			t.Fatal(err)
		}
		if ti < int64(n) {
			chk.ObserveNOC(ti, x, core.Decision{}, nil)
			continue
		}
		dec, err := p.det.Observe(x, p.fetch)
		if err != nil {
			t.Fatal(err)
		}
		if res, ok := chk.ObserveNOC(ti, x, dec, p.det.Model()); ok {
			ran++
			if len(res.Violations) > 0 {
				t.Fatalf("t=%d: %v", ti, res.Worst())
			}
		}
	}
	if ran < 5 {
		t.Fatalf("only %d NOC oracle passes ran", ran)
	}
	if reg.Counter("streampca_noc_oracle_checks_total", "").Value() == 0 {
		t.Fatal("no NOC oracle checks recorded")
	}
}

// TestEffectiveEpsilon pins the widening behavior: the JL floor dominates at
// small l, the configured ε at large l, and it shrinks monotonically in l.
func TestEffectiveEpsilon(t *testing.T) {
	if got := EffectiveEpsilon(0.1, 256, 1<<20); got != 0.1 {
		t.Fatalf("huge l: %v, want the configured eps", got)
	}
	small := EffectiveEpsilon(0.1, 256, 8)
	large := EffectiveEpsilon(0.1, 256, 64)
	if !(small > large && large >= 0.1) {
		t.Fatalf("not monotone: eps(8)=%v eps(64)=%v", small, large)
	}
}

// TestVectorWindowContiguity pins the skip semantics: a gap in the pushed
// intervals makes every window spanning it non-reconstructible.
func TestVectorWindowContiguity(t *testing.T) {
	vw := NewVectorWindow(4, 2, 0)
	for ti := int64(1); ti <= 10; ti++ {
		if ti == 6 {
			continue // dropped interval
		}
		vw.Push(ti, []float64{float64(ti), -float64(ti)})
	}
	if _, _, ok := vw.MatrixEnding(5); !ok {
		t.Fatal("pre-gap window should reconstruct")
	}
	for _, end := range []int64{6, 7, 8, 9} {
		if _, _, ok := vw.MatrixEnding(end); ok {
			t.Fatalf("window ending %d spans the gap but reconstructed", end)
		}
	}
	y, t0, ok := vw.MatrixEnding(10)
	if !ok || t0 != 7 || y.Rows() != 4 || y.At(0, 0) != 7 {
		t.Fatalf("post-gap window: ok=%v t0=%d", ok, t0)
	}
}
