package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"streampca/internal/mat"
	"streampca/internal/pca"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
)

func testGen(t *testing.T, l, window int) *randproj.Generator {
	t.Helper()
	g, err := randproj.NewGenerator(randproj.Config{Seed: 1234, SketchLen: l, WindowLen: window})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// lowRankStream produces n rows of m-flow volumes near a rank-k subspace.
func lowRankStream(rng *rand.Rand, n, m, k int, noise float64) *mat.Matrix {
	basis := mat.NewMatrix(m, k)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			basis.Set(i, j, rng.NormFloat64())
		}
	}
	x := mat.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		coeff := make([]float64, k)
		for j := range coeff {
			coeff[j] = 10 * rng.NormFloat64()
		}
		row := x.RowView(i)
		for a := 0; a < m; a++ {
			var s float64
			for j := 0; j < k; j++ {
				s += basis.At(a, j) * coeff[j]
			}
			v := 1000 + s + noise*rng.NormFloat64()
			if v < 0 {
				v = 0
			}
			row[a] = v
		}
	}
	return x
}

func TestNewMonitorValidation(t *testing.T) {
	g := testGen(t, 8, 64)
	tests := []struct {
		name string
		cfg  MonitorConfig
	}{
		{name: "no flows", cfg: MonitorConfig{WindowLen: 64, Gen: g}},
		{name: "nil gen", cfg: MonitorConfig{FlowIDs: []int{0}, WindowLen: 64}},
		{name: "negative flow", cfg: MonitorConfig{FlowIDs: []int{-1}, WindowLen: 64, Gen: g}},
		{name: "duplicate flow", cfg: MonitorConfig{FlowIDs: []int{2, 2}, WindowLen: 64, Gen: g}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewMonitor(tt.cfg); err == nil {
				t.Fatal("want error")
			}
		})
	}
	mon, err := NewMonitor(MonitorConfig{FlowIDs: []int{3, 1}, WindowLen: 64, Gen: g})
	if err != nil {
		t.Fatal(err)
	}
	if mon.NumFlows() != 2 {
		t.Fatalf("NumFlows = %d", mon.NumFlows())
	}
	ids := mon.FlowIDs()
	ids[0] = 99
	if mon.FlowIDs()[0] == 99 {
		t.Fatal("FlowIDs must return a copy")
	}
}

func TestMonitorUpdateAndReport(t *testing.T) {
	g := testGen(t, 6, 32)
	mon, err := NewMonitor(MonitorConfig{FlowIDs: []int{0, 1, 2}, WindowLen: 32, Gen: g})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Update(1, []float64{1, 2}); !errors.Is(err, ErrInput) {
		t.Fatalf("short volumes: %v", err)
	}
	for i := 1; i <= 40; i++ {
		if err := mon.Update(int64(i), []float64{float64(i), 100, float64(2 * i)}); err != nil {
			t.Fatal(err)
		}
	}
	if mon.Now() != 40 {
		t.Fatalf("now = %d", mon.Now())
	}
	rep := mon.Report()
	if rep.Interval != 40 || len(rep.Sketches) != 3 || len(rep.Means) != 3 {
		t.Fatalf("report = %+v", rep)
	}
	if err := rep.Validate(6); err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(7); !errors.Is(err, ErrInput) {
		t.Fatalf("wrong sketch len must fail: %v", err)
	}
	// Constant flow 1: mean 100, sketch finite.
	if math.Abs(rep.Means[1]-100) > 1e-9 {
		t.Fatalf("mean of constant flow = %v", rep.Means[1])
	}
	for _, v := range rep.Sketches[1] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite sketch")
		}
	}
	// A pull describes the window without the interval being scored.
	if rep.Counts[0] != 31 {
		t.Fatalf("count = %d, want window 32 less the newest interval", rep.Counts[0])
	}
}

func TestNewDetectorValidation(t *testing.T) {
	base := DetectorConfig{NumFlows: 5, WindowLen: 100, SketchLen: 10, Alpha: 0.01, FixedRank: 2}
	if _, err := NewDetector(base); err != nil {
		t.Fatal(err)
	}
	bad := []DetectorConfig{
		{NumFlows: 0, WindowLen: 100, SketchLen: 10, Alpha: 0.01},
		{NumFlows: 5, WindowLen: 1, SketchLen: 10, Alpha: 0.01},
		{NumFlows: 5, WindowLen: 100, SketchLen: 0, Alpha: 0.01},
		{NumFlows: 5, WindowLen: 100, SketchLen: 10, Alpha: 0},
		{NumFlows: 5, WindowLen: 100, SketchLen: 10, Alpha: 0.01, FixedRank: 9},
		{NumFlows: 5, WindowLen: 100, SketchLen: 10, Alpha: 0.01, EnergyFrac: 2},
		{NumFlows: 5, WindowLen: 100, SketchLen: 10, Alpha: 0.01, EnergyFrac: math.NaN()},
		{NumFlows: 5, WindowLen: 100, SketchLen: 10, Alpha: 0.01, EnergyFrac: -0.1},
		{NumFlows: 5, WindowLen: 100, SketchLen: 10, Alpha: 0.01, EnergyFrac: 1.5},
		{NumFlows: 5, WindowLen: 100, SketchLen: 10, Alpha: 0.01, EnergyFrac: math.Inf(1)},
		{NumFlows: 5, WindowLen: 100, SketchLen: 10, Alpha: 0.01, Family: sketch.Family(42)},
	}
	for i, cfg := range bad {
		if _, err := NewDetector(cfg); !errors.Is(err, ErrConfig) {
			t.Fatalf("case %d: want ErrConfig, got %v", i, err)
		}
	}
}

func TestAssembleSketchMatrix(t *testing.T) {
	if _, err := AssembleSketchMatrix(nil, 3); !errors.Is(err, ErrInput) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := AssembleSketchMatrix([][]float64{nil}, 3); !errors.Is(err, ErrInput) {
		t.Fatalf("missing flow: %v", err)
	}
	if _, err := AssembleSketchMatrix([][]float64{{1, 2}}, 3); !errors.Is(err, ErrInput) {
		t.Fatalf("short sketch: %v", err)
	}
	if _, err := AssembleSketchMatrix([][]float64{{1, math.NaN(), 3}}, 3); !errors.Is(err, ErrInput) {
		t.Fatalf("NaN: %v", err)
	}
	z, err := AssembleSketchMatrix([][]float64{{1, 2}, {3, 4}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if z.Rows() != 2 || z.Cols() != 2 || z.At(0, 1) != 3 || z.At(1, 0) != 2 {
		t.Fatalf("assembled = %v", z)
	}
}

// striped builds k monitors over p's flows (Params.Stripe,
// Params.NewMonitor), feeds them the rows of x as intervals 1, 2, … (x may
// be nil) and returns them with the pull that reads them all (Params.Fetch)
// and p, its sketch parameter resolved.
func striped(t *testing.T, p Params, k int, x *mat.Matrix) ([]*Monitor, FetchFunc, Params) {
	t.Helper()
	flows, p, err := p.Stripe(k)
	if err != nil {
		t.Fatal(err)
	}
	mons := make([]*Monitor, k)
	for i := range mons {
		if mons[i], err = p.NewMonitor(flows[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; x != nil && i < x.Rows(); i++ {
		if err := feed(mons, int64(i+1), x.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return mons, func() (Fetch, error) { return p.Fetch(mons...) }, p
}

// feed has every monitor update interval t with its flows of the
// network-wide row.
func feed(mons []*Monitor, t int64, row []float64) error {
	for _, mon := range mons {
		ids := mon.FlowIDs()
		local := make([]float64, len(ids))
		for s, f := range ids {
			local[s] = row[f]
		}
		if err := mon.Update(t, local); err != nil {
			return err
		}
	}
	return nil
}

func TestDetectorMatchesExactPCA(t *testing.T) {
	// Theorem 2: with a generous sketch length the sketch-based anomaly
	// distance approximates the exact PCA distance.
	rng := rand.New(rand.NewSource(55))
	n, m, k, l := 256, 9, 3, 200
	x := lowRankStream(rng, n, m, k, 2)

	_, fetch, _ := striped(t, Params{NumFlows: m, WindowLen: n, SketchLen: l, Seed: 7}, 3, x)
	det, err := NewDetector(DetectorConfig{NumFlows: m, WindowLen: n, SketchLen: l, Alpha: 0.01, FixedRank: k})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fetch()
	if err != nil {
		t.Fatal(err)
	}
	if f.Interval != int64(n) {
		t.Fatalf("fetch interval = %d", f.Interval)
	}
	if err := det.RebuildModel(f.Sketches, f.Means, f.Interval); err != nil {
		t.Fatal(err)
	}

	exactModel, err := pca.Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	exactDet, err := pca.NewDetector(exactModel, k, 0.01)
	if err != nil {
		t.Fatal(err)
	}

	// Lemma 5: leading singular values preserved within a loose (1±δ) band.
	sk := det.Model()
	for j := 0; j < k; j++ {
		ratio := sk.Singular[j] / exactModel.Singular[j]
		if ratio < 0.7 || ratio > 1.3 {
			t.Fatalf("λ̂_%d/η_%d = %v, want ≈1", j, j, ratio)
		}
	}

	// Distances agree within a modest relative error on typical vectors.
	var relErrSum float64
	trials := 50
	for i := 0; i < trials; i++ {
		row := x.Row(rng.Intn(n))
		de, err := exactDet.Distance(row)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := det.Distance(row)
		if err != nil {
			t.Fatal(err)
		}
		if de > 1e-9 {
			relErrSum += math.Abs(ds-de) / de
		}
	}
	if avg := relErrSum / float64(trials); avg > 0.35 {
		t.Fatalf("mean relative distance error = %v", avg)
	}

	// Thresholds land in the same ballpark.
	if ratio := det.Model().Threshold / exactDet.Threshold(); ratio < 0.5 || ratio > 2 {
		t.Fatalf("δ/Q = %v", ratio)
	}
}

func TestDetectorNoModelErrors(t *testing.T) {
	det, err := NewDetector(DetectorConfig{NumFlows: 3, WindowLen: 10, SketchLen: 4, Alpha: 0.01, FixedRank: 1})
	if err != nil {
		t.Fatal(err)
	}
	if det.HasModel() {
		t.Fatal("fresh detector must have no model")
	}
	if _, err := det.Distance([]float64{1, 2, 3}); !errors.Is(err, ErrNoModel) {
		t.Fatalf("distance: %v", err)
	}
}

func TestDetectorRebuildValidation(t *testing.T) {
	det, err := NewDetector(DetectorConfig{NumFlows: 2, WindowLen: 10, SketchLen: 2, Alpha: 0.01, FixedRank: 1})
	if err != nil {
		t.Fatal(err)
	}
	ok := [][]float64{{1, 2}, {3, 4}}
	if err := det.RebuildModel(ok[:1], []float64{1}, 0); !errors.Is(err, ErrInput) {
		t.Fatalf("wrong counts: %v", err)
	}
	if err := det.RebuildModel(ok, []float64{1, math.Inf(1)}, 0); !errors.Is(err, ErrInput) {
		t.Fatalf("bad mean: %v", err)
	}
	if err := det.RebuildModel(ok, []float64{1, 2}, 5); err != nil {
		t.Fatal(err)
	}
	if det.Model().BuiltAt != 5 {
		t.Fatalf("BuiltAt = %d", det.Model().BuiltAt)
	}
	if _, err := det.Distance([]float64{1, math.NaN()}); !errors.Is(err, ErrInput) {
		t.Fatalf("NaN measurement: %v", err)
	}
}

func TestLazyProtocol(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n, m, k := 200, 8, 2
	x := lowRankStream(rng, n, m, k, 1)
	_, pull, _ := striped(t, Params{NumFlows: m, WindowLen: n, SketchLen: 64, Seed: 3}, 2, x)
	var fetches int
	fetch := func() (Fetch, error) { fetches++; return pull() }
	det, err := NewDetector(DetectorConfig{NumFlows: m, WindowLen: n, SketchLen: 64, Alpha: 0.005, FixedRank: k})
	if err != nil {
		t.Fatal(err)
	}

	// First observation builds the model (one fetch).
	dec, err := det.Observe(x.Row(n-1), fetch)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Refreshed {
		t.Fatal("first observation must refresh")
	}
	fetches0 := fetches
	if fetches0 != 1 {
		t.Fatalf("fetches = %d", fetches0)
	}

	// Typical vectors: no further fetches.
	var normals int
	for i := 0; i < 30; i++ {
		dec, err := det.Observe(x.Row(rng.Intn(n)), fetch)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Anomalous {
			normals++
		}
	}
	fetches1 := fetches
	if normals < 25 {
		t.Fatalf("only %d/30 typical vectors below threshold", normals)
	}
	if fetches1 > fetches0+5 {
		t.Fatalf("lazy protocol fetched %d times on normal traffic", fetches1-fetches0)
	}

	// A gross outlier must fetch, re-check, and alarm.
	outlier := x.Row(0)
	for j := range outlier {
		outlier[j] += 5000 * math.Pow(-1, float64(j))
	}
	dec, err = det.Observe(outlier, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Anomalous || !dec.Refreshed {
		t.Fatalf("outlier decision = %+v", dec)
	}
	if fetches != fetches1+1 {
		t.Fatalf("fetches %d→%d", fetches1, fetches)
	}

	if _, err := det.Observe(outlier, nil); !errors.Is(err, ErrInput) {
		t.Fatalf("nil fetch: %v", err)
	}
}

func TestLazyProtocolFetchError(t *testing.T) {
	det, err := NewDetector(DetectorConfig{NumFlows: 2, WindowLen: 10, SketchLen: 2, Alpha: 0.01, FixedRank: 1})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("monitor unreachable")
	_, err = det.Observe([]float64{1, 2}, func() (Fetch, error) {
		return Fetch{}, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("fetch failure must propagate, got %v", err)
	}
}

func TestDegradedFetchFlagsDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const m, n = 6, 128
	x := lowRankStream(rng, n, m, 2, 1)
	_, fetch, _ := striped(t, Params{NumFlows: m, WindowLen: n, SketchLen: 48, Seed: 9}, 2, x)
	det, err := NewDetector(DetectorConfig{NumFlows: m, WindowLen: n, SketchLen: 48, Alpha: 0.01, FixedRank: 2})
	if err != nil {
		t.Fatal(err)
	}

	degradedFetch := func() (Fetch, error) {
		f, err := fetch()
		if err != nil {
			return Fetch{}, err
		}
		f.Degraded = true
		f.StaleFlows = 2
		return f, nil
	}
	// First observation refreshes through the degraded fetch.
	dec, err := det.Observe(x.Row(n-1), degradedFetch)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Refreshed || !dec.Degraded || dec.StaleFlows != 2 {
		t.Fatalf("degraded refresh decision = %+v", dec)
	}
	if mod := det.Model(); !mod.Degraded || mod.StaleFlows != 2 {
		t.Fatalf("model = degraded %t, stale %d", mod.Degraded, mod.StaleFlows)
	}
	// Later observations keep the flag while the degraded model is in force.
	dec, err = det.Observe(x.Row(0), fetch)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Degraded {
		t.Fatalf("flag must persist with the degraded model: %+v", dec)
	}
	// A full-coverage refresh clears it.
	outlier := x.Row(0)
	for j := range outlier {
		outlier[j] += 1e6
	}
	dec, err = det.Observe(outlier, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Refreshed || dec.Degraded || dec.StaleFlows != 0 {
		t.Fatalf("healthy refresh decision = %+v", dec)
	}
}

func TestRankModesOnSketch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, m, k := 300, 10, 3
	x := lowRankStream(rng, n, m, k, 0.5)
	for _, energy := range []float64{0, 0.9} {
		_, fetch, _ := striped(t, Params{NumFlows: m, WindowLen: n, SketchLen: 128, Seed: 5}, 1, x)
		det, err := NewDetector(DetectorConfig{NumFlows: m, WindowLen: n, SketchLen: 128, Alpha: 0.01, EnergyFrac: energy, FixedRank: k})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fetch()
		if err != nil {
			t.Fatal(err)
		}
		if err := det.RebuildModel(f.Sketches, f.Means, f.Interval); err != nil {
			t.Fatal(err)
		}
		r := det.Model().Rank
		if energy == 0 && r != k {
			t.Fatalf("fixed rank = %d, want %d", r, k)
		}
		if energy != 0 && (r < 1 || r > k+2) {
			t.Fatalf("energy rank = %d for rank-%d data", r, k)
		}
	}
}

// TestNewClusterValidation: the blocks a cluster of monitors and a detector
// is built from reject what cannot run — no flows, more monitors than flows,
// no sketch length.
func TestNewClusterValidation(t *testing.T) {
	base := Params{NumFlows: 4, WindowLen: 32, SketchLen: 8, Seed: 1}
	striped(t, base, 2, nil)
	bad := base
	bad.NumFlows = 0
	if _, _, err := bad.Stripe(2); !errors.Is(err, ErrConfig) {
		t.Fatalf("flows: %v", err)
	}
	if _, _, err := base.Stripe(5); !errors.Is(err, ErrConfig) {
		t.Fatalf("monitors: %v", err)
	}
	bad = base
	bad.SketchLen = 0
	if _, err := bad.NewMonitor([]int{0, 2}); err == nil {
		t.Fatal("bad sketch config must fail")
	}
	if _, err := NewDetector(DetectorConfig{NumFlows: 4, WindowLen: 32, Alpha: 0.01, FixedRank: 1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("detector without a sketch length: %v", err)
	}
}

func TestClusterPartitioningMatchesSingleMonitor(t *testing.T) {
	// The same stream through 1 monitor and through 4 monitors must yield
	// identical sketches at the NOC (shared randomness).
	rng := rand.New(rand.NewSource(77))
	n, m := 128, 8
	x := lowRankStream(rng, n, m, 2, 1)
	mk := func(monitors int) ([][]float64, []float64) {
		_, fetch, _ := striped(t, Params{NumFlows: m, WindowLen: n, SketchLen: 16, Seed: 21}, monitors, x)
		f, err := fetch()
		if err != nil {
			t.Fatal(err)
		}
		return f.Sketches, f.Means
	}
	s1, m1 := mk(1)
	s4, m4 := mk(4)
	for j := 0; j < m; j++ {
		if math.Abs(m1[j]-m4[j]) > 1e-9 {
			t.Fatalf("means differ at flow %d", j)
		}
		for k := range s1[j] {
			if math.Abs(s1[j][k]-s4[j][k]) > 1e-9 {
				t.Fatalf("sketches differ at flow %d k %d", j, k)
			}
		}
	}
}

func TestClusterStepEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n, m, k := 200, 9, 2
	x := lowRankStream(rng, 3*n, m, k, 1)
	mons, fetch, _ := striped(t, Params{NumFlows: m, WindowLen: n, SketchLen: 80, Seed: 11}, 3, nil)
	det, err := NewDetector(DetectorConfig{NumFlows: m, WindowLen: n, SketchLen: 80, Alpha: 0.002, FixedRank: k})
	if err != nil {
		t.Fatal(err)
	}
	var alarms, steps int
	spikeAt := 2*n + 50
	var spikeDec Decision
	for i := 0; i < x.Rows(); i++ {
		row := x.Row(i)
		observed := row
		if i == spikeAt {
			// Structured anomaly outside the rank-k subspace. The clean
			// row still feeds the monitors (an operator quarantines
			// flagged intervals from training — the poisoning problem the
			// paper cites from Rubinstein et al.), while the NOC observes
			// the anomalous measurement.
			observed = append([]float64(nil), row...)
			observed[0] += 8000
			observed[4] += 6000
		}
		if err := feed(mons, int64(i+1), row); err != nil {
			t.Fatal(err)
		}
		dec, err := det.Observe(observed, fetch)
		if err != nil {
			t.Fatal(err)
		}
		if i >= n { // past warm-up
			steps++
			if dec.Anomalous {
				alarms++
			}
		}
		if i == spikeAt {
			spikeDec = dec
		}
	}
	if !spikeDec.Anomalous {
		t.Fatalf("injected anomaly missed: %+v", spikeDec)
	}
	if rate := float64(alarms) / float64(steps); rate > 0.25 {
		t.Fatalf("alarm rate %v too high", rate)
	}
	if err := feed(mons, 1, x.Row(0)); err == nil {
		t.Fatal("out-of-order update must fail")
	}
	if err := mons[0].Update(9999, []float64{1}); !errors.Is(err, ErrInput) {
		t.Fatalf("short vector: %v", err)
	}
}
