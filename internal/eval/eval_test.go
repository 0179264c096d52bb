package eval

import (
	"errors"
	"math"
	"testing"

	"streampca/internal/traffic"
)

// testTrace builds a small-network trace with injected anomalies: a few
// coordinated shifts plus one high-profile spike.
func testTrace(t *testing.T) *traffic.Trace {
	t.Helper()
	tr, err := traffic.Generate(traffic.GeneratorConfig{
		Routers:         []string{"A", "B", "C", "D"},
		NumIntervals:    480,
		IntervalsPerDay: 96,
		Seed:            77,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.InjectCoordinated([]int{1, 6, 11}, 300, 305, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := tr.InjectSpike(2, 380, 382, 6); err != nil {
		t.Fatal(err)
	}
	if err := tr.InjectCoordinated([]int{3, 7, 13, 14}, 430, 434, 1.2); err != nil {
		t.Fatal(err)
	}
	return tr
}

// testScenario is the set-up the small-network tests share: n = 128, r = 4,
// the paper's α, four monitors over the 16 flows.
func testScenario(t *testing.T) Scenario {
	return Scenario{
		Trace: testTrace(t), WindowLen: 128, Rank: 4, Alpha: 0.01,
		Seed: 9, SketchLen: 64, Monitors: 4, RefitEvery: 4,
	}
}

func TestGroundTruthBasics(t *testing.T) {
	s := testScenario(t)
	tr := s.Trace
	truth, err := GroundTruth(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth.Ready) != tr.NumIntervals() {
		t.Fatalf("ready len = %d", len(truth.Ready))
	}
	for i := 0; i < 127; i++ {
		if truth.Ready[i] {
			t.Fatalf("ready during warmup at %d", i)
		}
	}
	if !truth.Ready[127] || !truth.Ready[tr.NumIntervals()-1] {
		t.Fatal("truth must be ready once the window fills")
	}
	if truth.NumAnomalous+truth.NumNormal != tr.NumIntervals()-127 {
		t.Fatal("counts must cover all ready intervals")
	}
	if truth.NumAnomalous == 0 {
		t.Fatal("injected anomalies produced no exact detections")
	}
	// The exact method should flag at least part of each injection window.
	covered := 0
	for _, inj := range tr.Injections {
		for i := inj.Start; i < inj.End; i++ {
			if truth.Ready[i] && truth.Anomalous[i] {
				covered++
				break
			}
		}
	}
	if covered < 2 {
		t.Fatalf("exact method flagged only %d of %d injections", covered, len(tr.Injections))
	}
	// Alarm rate on un-injected intervals stays moderate.
	labels := tr.Labels()
	var fp, normals int
	for i, ready := range truth.Ready {
		if !ready || labels[i] {
			continue
		}
		normals++
		if truth.Anomalous[i] {
			fp++
		}
	}
	if rate := float64(fp) / float64(normals); rate > 0.2 {
		t.Fatalf("exact false-positive rate vs injections = %v", rate)
	}
}

func TestGroundTruthValidation(t *testing.T) {
	tr := testTrace(t)
	cases := []Scenario{
		{WindowLen: 1, Rank: 2, Alpha: 0.01},
		{WindowLen: 100000, Rank: 2, Alpha: 0.01},
		{WindowLen: 64, Rank: -1, Alpha: 0.01},
		{WindowLen: 64, Rank: 99, Alpha: 0.01},
		{WindowLen: 64, Rank: 2, Alpha: 0},
		{WindowLen: 64, Rank: 2, Alpha: 0.01, RefitEvery: -2},
	}
	for i, s := range cases {
		s.Trace = tr
		if _, err := GroundTruth(s); !errors.Is(err, ErrConfig) {
			t.Fatalf("case %d: want ErrConfig, got %v", i, err)
		}
	}
}

func TestSweepErrorsAgainstTruth(t *testing.T) {
	s := testScenario(t)
	truth, err := GroundTruth(s)
	if err != nil {
		t.Fatal(err)
	}
	points, err := SweepErrors(s, truth, []int{1, 2, 3, 4, 5, 6}, []int{8, 32, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 18 {
		t.Fatalf("points = %d, want 18", len(points))
	}
	byKey := make(map[[2]int]ErrorPoint, len(points))
	for _, p := range points {
		if p.TypeI() < 0 || p.TypeI() > 1 || p.TypeII() < 0 || p.TypeII() > 1 {
			t.Fatalf("error rates out of range: %+v", p)
		}
		if p.TrueAnomalies != truth.NumAnomalous || p.TrueNormals != truth.NumNormal {
			t.Fatalf("count mismatch: %+v vs truth %d/%d", p, truth.NumAnomalous, truth.NumNormal)
		}
		byKey[[2]int{p.Rank, p.SketchLen}] = p
	}
	// The paper's Fig. 9 shape: with r matching the truth rank, a longer
	// sketch should not be (much) worse than a tiny one, and at l = 128 the
	// approximation should track the exact method closely.
	small := byKey[[2]int{4, 8}]
	large := byKey[[2]int{4, 128}]
	if large.TypeI()+large.TypeII() > small.TypeI()+small.TypeII()+0.1 {
		t.Fatalf("errors grew with sketch length: l=8 %v/%v, l=128 %v/%v",
			small.TypeI(), small.TypeII(), large.TypeI(), large.TypeII())
	}
	if large.TypeI() > 0.15 || large.TypeII() > 0.5 {
		t.Fatalf("large-sketch errors too high: TypeI=%v TypeII=%v", large.TypeI(), large.TypeII())
	}
}

func TestSweepErrorsValidation(t *testing.T) {
	s := testScenario(t)
	s.RefitEvery = 8
	truth, err := GroundTruth(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepErrors(s, nil, []int{2}, []int{8}); !errors.Is(err, ErrInput) {
		t.Fatalf("nil truth: %v", err)
	}
	if _, err := SweepErrors(s, truth, nil, []int{8}); !errors.Is(err, ErrConfig) {
		t.Fatalf("no ranks: %v", err)
	}
	if _, err := SweepErrors(s, truth, []int{99}, []int{8}); !errors.Is(err, ErrConfig) {
		t.Fatalf("rank too big: %v", err)
	}
	s.RefitEvery = -1
	if _, err := SweepErrors(s, truth, []int{2}, []int{8}); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad cadence: %v", err)
	}
}

func TestOverhead(t *testing.T) {
	pts, err := Overhead(81, 4032, []int{10, 100, 1000}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.LakhinaOps != 81*81*4032 {
			t.Fatalf("lakhina ops = %v", p.LakhinaOps)
		}
		if p.SketchOps != 81*81*float64(p.SketchLen) {
			t.Fatalf("sketch ops = %v", p.SketchOps)
		}
		if p.SketchOps >= p.LakhinaOps {
			t.Fatal("sketch must be cheaper for l < n")
		}
	}
	// Measured mode produces timings with the same ordering.
	m, err := Overhead(20, 500, []int{10}, true)
	if err != nil {
		t.Fatal(err)
	}
	if m[0].LakhinaNs <= 0 || m[0].SketchNs <= 0 {
		t.Fatalf("timings = %+v", m[0])
	}
	if _, err := Overhead(0, 10, []int{1}, false); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad m: %v", err)
	}
	if _, err := Overhead(5, 10, nil, false); !errors.Is(err, ErrConfig) {
		t.Fatalf("no lengths: %v", err)
	}
	if _, err := Overhead(5, 10, []int{0}, false); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad length: %v", err)
	}
}

func TestCheckBounds(t *testing.T) {
	s := testScenario(t)
	s.Seed, s.SketchLen = 5, 256
	rep, err := CheckBounds(s)
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range rep.SingularRatios {
		if r < 0.6 || r > 1.4 {
			t.Fatalf("singular ratio %d = %v, want ≈1", j, r)
		}
	}
	if rep.CovRelError < 0 || rep.CovRelError > 1 {
		t.Fatalf("covariance relative error = %v", rep.CovRelError)
	}
	if rep.MeanDistRelError > 0.5 {
		t.Fatalf("mean distance error = %v", rep.MeanDistRelError)
	}
	if rep.MaxDistRelError < rep.MeanDistRelError {
		t.Fatal("max must dominate mean")
	}
	if math.IsNaN(rep.SpectralGap) {
		t.Fatal("spectral gap NaN")
	}
	bad := s
	bad.WindowLen = 1
	if _, err := CheckBounds(bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad window: %v", err)
	}
	bad = s
	bad.Rank = 0
	if _, err := CheckBounds(bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad rank: %v", err)
	}
}

func TestBoundsTightenWithSketchLength(t *testing.T) {
	s := testScenario(t)
	s.Seed, s.SketchLen = 5, 8
	loose, err := CheckBounds(s)
	if err != nil {
		t.Fatal(err)
	}
	s.SketchLen = 512
	tight, err := CheckBounds(s)
	if err != nil {
		t.Fatal(err)
	}
	if tight.MeanDistRelError > loose.MeanDistRelError+0.05 {
		t.Fatalf("distance error did not tighten: l=8 %v, l=512 %v",
			loose.MeanDistRelError, tight.MeanDistRelError)
	}
}

func TestExtractSeriesAndFig5(t *testing.T) {
	tr, start, end, err := BuildFig5Trace(3, 960)
	if err != nil {
		t.Fatal(err)
	}
	if start <= 0 || end <= start || end > tr.NumIntervals() {
		t.Fatalf("anomaly window [%d,%d)", start, end)
	}
	series, err := ExtractSeries(tr, Fig5Flows, start-20, end+20)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	// Each flow's mean during the anomaly exceeds its mean before it.
	for _, s := range series {
		pre := s.Values[:20]
		mid := s.Values[20 : 20+(end-start)]
		var preMean, midMean float64
		for _, v := range pre {
			preMean += v
		}
		preMean /= float64(len(pre))
		for _, v := range mid {
			midMean += v
		}
		midMean /= float64(len(mid))
		if midMean <= preMean*1.2 {
			t.Fatalf("%s: anomaly not visible (pre %v, during %v)", s.Name, preMean, midMean)
		}
	}
	if _, err := ExtractSeries(tr, []string{"NOPE→X"}, 0, 10); err == nil {
		t.Fatal("unknown flow must fail")
	}
	if _, err := ExtractSeries(tr, Fig5Flows, 10, 5); !errors.Is(err, ErrInput) {
		t.Fatalf("bad range: %v", err)
	}
	if _, err := ExtractSeries(tr, nil, 0, 10); !errors.Is(err, ErrInput) {
		t.Fatalf("no flows: %v", err)
	}
}
