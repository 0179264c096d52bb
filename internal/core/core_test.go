package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"streampca/internal/mat"
	"streampca/internal/pca"
	"streampca/internal/randproj"
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
		{name: "no flows", cfg: MonitorConfig{WindowLen: 64, Epsilon: 0.1, Gen: g}},
		{name: "nil gen", cfg: MonitorConfig{FlowIDs: []int{0}, WindowLen: 64, Epsilon: 0.1}},
		{name: "negative flow", cfg: MonitorConfig{FlowIDs: []int{-1}, WindowLen: 64, Epsilon: 0.1, Gen: g}},
		{name: "duplicate flow", cfg: MonitorConfig{FlowIDs: []int{2, 2}, WindowLen: 64, Epsilon: 0.1, Gen: g}},
		{name: "bad epsilon", cfg: MonitorConfig{FlowIDs: []int{0}, WindowLen: 64, Epsilon: 2, Gen: g}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewMonitor(tt.cfg); err == nil {
				t.Fatal("want error")
			}
		})
	}
	mon, err := NewMonitor(MonitorConfig{FlowIDs: []int{3, 1}, WindowLen: 64, Epsilon: 0.1, Gen: g})
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
	mon, err := NewMonitor(MonitorConfig{FlowIDs: []int{0, 1, 2}, WindowLen: 32, Epsilon: 0.05, Gen: g})
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
	if rep.Counts[0] != 32 {
		t.Fatalf("count = %d, want window 32", rep.Counts[0])
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
		{NumFlows: 5, WindowLen: 100, SketchLen: 10, Alpha: 0.01, Mode: RankEnergy, EnergyFrac: 2},
		{NumFlows: 5, WindowLen: 100, SketchLen: 10, Alpha: 0.01, Mode: RankMode(42)},
	}
	for i, cfg := range bad {
		if _, err := NewDetector(cfg); !errors.Is(err, ErrConfig) {
			t.Fatalf("case %d: want ErrConfig, got %v", i, err)
		}
	}
}

func TestRankModeString(t *testing.T) {
	for mode, want := range map[RankMode]string{
		RankFixed: "fixed", RankThreeSigma: "3sigma", RankEnergy: "energy", RankMode(9): "unknown",
	} {
		if got := mode.String(); got != want {
			t.Fatalf("%d.String() = %q", int(mode), got)
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

// driveCluster feeds a measurement matrix through a cluster's monitors.
func driveCluster(t *testing.T, c *Cluster, x *mat.Matrix) {
	t.Helper()
	for i := 0; i < x.Rows(); i++ {
		if err := c.Update(int64(i+1), x.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDetectorMatchesExactPCA(t *testing.T) {
	// Theorem 2: with a generous sketch length the sketch-based anomaly
	// distance approximates the exact PCA distance.
	rng := rand.New(rand.NewSource(55))
	n, m, k, l := 256, 9, 3, 200
	x := lowRankStream(rng, n, m, k, 2)

	cl, err := NewCluster(ClusterConfig{
		NumFlows: m, NumMonitors: 3, WindowLen: n, Epsilon: 0.01, Alpha: 0.01,
		Sketch:    randproj.Config{Seed: 7, SketchLen: l},
		Mode:      RankFixed,
		FixedRank: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveCluster(t, cl, x)
	f, err := cl.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if f.Interval != int64(n) {
		t.Fatalf("fetch interval = %d", f.Interval)
	}
	if err := cl.Detector().RebuildModel(f.Sketches, f.Means, f.Interval); err != nil {
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
	sk := cl.Detector().Model()
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
		ds, err := cl.Detector().Distance(row)
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
	if ratio := cl.Detector().Model().Threshold / exactDet.Threshold(); ratio < 0.5 || ratio > 2 {
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
	cl, err := NewCluster(ClusterConfig{
		NumFlows: m, NumMonitors: 2, WindowLen: n, Epsilon: 0.01, Alpha: 0.005,
		Sketch:    randproj.Config{Seed: 3, SketchLen: 64},
		FixedRank: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveCluster(t, cl, x)
	det := cl.Detector()

	// First observation builds the model (one fetch).
	dec, err := det.Observe(x.Row(n-1), cl.Fetch)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Refreshed {
		t.Fatal("first observation must refresh")
	}
	_, fetches0, _ := det.Stats()
	if fetches0 != 1 {
		t.Fatalf("fetches = %d", fetches0)
	}

	// Typical vectors: no further fetches.
	var normals int
	for i := 0; i < 30; i++ {
		dec, err := det.Observe(x.Row(rng.Intn(n)), cl.Fetch)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Anomalous {
			normals++
		}
	}
	_, fetches1, _ := det.Stats()
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
	dec, err = det.Observe(outlier, cl.Fetch)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Anomalous || !dec.Refreshed {
		t.Fatalf("outlier decision = %+v", dec)
	}
	_, fetches2, alarms := det.Stats()
	if fetches2 != fetches1+1 || alarms < 1 {
		t.Fatalf("fetches %d→%d, alarms %d", fetches1, fetches2, alarms)
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
	cl, err := NewCluster(ClusterConfig{
		NumFlows: m, NumMonitors: 2, WindowLen: n, Epsilon: 0.01, Alpha: 0.01,
		Sketch:    randproj.Config{Seed: 9, SketchLen: 48},
		FixedRank: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveCluster(t, cl, x)
	det := cl.Detector()

	degradedFetch := func() (Fetch, error) {
		f, err := cl.Fetch()
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
	dec, err = det.Observe(x.Row(0), cl.Fetch)
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
	dec, err = det.Observe(outlier, cl.Fetch)
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
	for _, mode := range []RankMode{RankFixed, RankThreeSigma, RankEnergy} {
		cl, err := NewCluster(ClusterConfig{
			NumFlows: m, NumMonitors: 1, WindowLen: n, Epsilon: 0.01, Alpha: 0.01,
			Sketch:    randproj.Config{Seed: 5, SketchLen: 128},
			Mode:      mode,
			FixedRank: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		driveCluster(t, cl, x)
		f, err := cl.Fetch()
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Detector().RebuildModel(f.Sketches, f.Means, f.Interval); err != nil {
			t.Fatal(err)
		}
		r := cl.Detector().Model().Rank
		if r < 0 || r > m {
			t.Fatalf("%v: rank %d", mode, r)
		}
		if mode == RankFixed && r != k {
			t.Fatalf("fixed rank = %d, want %d", r, k)
		}
		if mode == RankEnergy && (r < 1 || r > k+2) {
			t.Fatalf("energy rank = %d for rank-%d data", r, k)
		}
	}
}

func TestAttribute(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n, m, k := 300, 10, 3
	x := lowRankStream(rng, n, m, k, 1)
	cl, err := NewCluster(ClusterConfig{
		NumFlows: m, NumMonitors: 2, WindowLen: n, Epsilon: 0.01, Alpha: 0.01,
		Sketch: randproj.Config{Seed: 8, SketchLen: 128}, FixedRank: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	det := cl.Detector()
	if _, err := det.Attribute(x.Row(0), 3); !errors.Is(err, ErrNoModel) {
		t.Fatalf("no model: %v", err)
	}
	driveCluster(t, cl, x)
	f, err := cl.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if err := det.RebuildModel(f.Sketches, f.Means, f.Interval); err != nil {
		t.Fatal(err)
	}
	if _, err := det.Attribute([]float64{1}, 3); !errors.Is(err, ErrInput) {
		t.Fatalf("short vector: %v", err)
	}

	// Perturb two flows heavily: attribution must rank them first.
	bad := x.Row(0)
	bad[2] += 9000
	bad[7] += 7000
	top, err := det.Attribute(bad, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("topK = %d entries", len(top))
	}
	got := map[int]bool{top[0].Flow: true, top[1].Flow: true}
	if !got[2] || !got[7] {
		t.Fatalf("attribution = %+v, want flows 2 and 7", top)
	}
	if top[0].Share < top[1].Share {
		t.Fatal("contributions must be sorted descending")
	}
	// Shares across all flows sum to 1.
	all, err := det.Attribute(bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range all {
		sum += c.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	// ‖residual‖ from attribution equals the reported distance.
	var norm2 float64
	for _, c := range all {
		norm2 += c.Residual * c.Residual
	}
	dist, err := det.Distance(bad)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(math.Sqrt(norm2)-dist) > 1e-6*math.Max(1, dist) {
		t.Fatalf("‖residual‖ = %v, distance = %v", math.Sqrt(norm2), dist)
	}
}

func TestNewClusterValidation(t *testing.T) {
	base := ClusterConfig{
		NumFlows: 4, NumMonitors: 2, WindowLen: 32, Epsilon: 0.1, Alpha: 0.01,
		Sketch: randproj.Config{Seed: 1, SketchLen: 8}, FixedRank: 1,
	}
	if _, err := NewCluster(base); err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.NumFlows = 0
	if _, err := NewCluster(bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("flows: %v", err)
	}
	bad = base
	bad.NumMonitors = 5
	if _, err := NewCluster(bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("monitors: %v", err)
	}
	bad = base
	bad.Sketch.SketchLen = 0
	if _, err := NewCluster(bad); err == nil {
		t.Fatal("bad sketch config must fail")
	}
}

func TestClusterPartitioningMatchesSingleMonitor(t *testing.T) {
	// The same stream through 1 monitor and through 4 monitors must yield
	// identical sketches at the NOC (shared randomness).
	rng := rand.New(rand.NewSource(77))
	n, m := 128, 8
	x := lowRankStream(rng, n, m, 2, 1)
	mk := func(monitors int) ([][]float64, []float64) {
		cl, err := NewCluster(ClusterConfig{
			NumFlows: m, NumMonitors: monitors, WindowLen: n, Epsilon: 0.05, Alpha: 0.01,
			Sketch: randproj.Config{Seed: 21, SketchLen: 16}, FixedRank: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		driveCluster(t, cl, x)
		f, err := cl.Fetch()
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
	cl, err := NewCluster(ClusterConfig{
		NumFlows: m, NumMonitors: 3, WindowLen: n, Epsilon: 0.02, Alpha: 0.002,
		Sketch: randproj.Config{Seed: 11, SketchLen: 80}, FixedRank: k,
	})
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
		if err := cl.Update(int64(i+1), row); err != nil {
			t.Fatal(err)
		}
		dec, err := cl.Detector().Observe(observed, cl.Fetch)
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
	if err := cl.Update(1, x.Row(0)); err == nil {
		t.Fatal("out-of-order update must fail")
	}
	if err := cl.Update(9999, []float64{1}); !errors.Is(err, ErrInput) {
		t.Fatalf("short vector: %v", err)
	}
}
