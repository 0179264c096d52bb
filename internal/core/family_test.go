package core

import (
	"errors"
	"math/rand"
	"testing"

	"streampca/internal/sketch"
)

// fdBlocks feeds a stream through one FD sketcher per monitor block and
// returns the per-block snapshots.
func fdBlocks(t *testing.T, assign [][]int, ell int, x [][]float64) []sketch.Snapshot {
	t.Helper()
	blocks := make([]sketch.Snapshot, len(assign))
	for bi, ids := range assign {
		fd, err := sketch.NewFD(sketch.Config{Family: sketch.FamilyFD, FlowIDs: ids, Ell: ell})
		if err != nil {
			t.Fatal(err)
		}
		vol := make([]float64, len(ids))
		for ti, row := range x {
			for i, id := range ids {
				vol[i] = row[id]
			}
			if err := fd.Update(int64(ti+1), vol); err != nil {
				t.Fatal(err)
			}
		}
		blocks[bi] = fd.Snapshot()
	}
	return blocks
}

// TestRebuildFDTruncatedSpectrumThresholdUnavailable: FD keeps at most Σ2ℓ
// basis directions; asking for a normal subspace at least that large leaves
// no residual spectrum and must flag the threshold, exactly like the PR-4
// degenerate case.
func TestRebuildFDTruncatedSpectrumThresholdUnavailable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const m, ell = 6, 2
	x := make([][]float64, 32)
	for i := range x {
		row := make([]float64, m)
		for j := range row {
			row[j] = 100 + 10*rng.NormFloat64()
		}
		x[i] = row
	}
	blocks := fdBlocks(t, [][]int{{0, 1, 2, 3, 4, 5}}, ell, x)
	det, err := NewDetector(DetectorConfig{
		NumFlows: m, WindowLen: 32, SketchLen: ell,
		Alpha: 0.01, Mode: RankFixed, FixedRank: m,
		Family: sketch.FamilyFD,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Rebuild(Fetch{Blocks: blocks, Interval: 32}); err != nil {
		t.Fatal(err)
	}
	model := det.Model()
	if !model.ThresholdUnavailable {
		t.Fatal("rank ≥ FD basis count must flag ThresholdUnavailable")
	}
	if model.Threshold != 0 {
		t.Fatalf("placeholder threshold = %v, want 0", model.Threshold)
	}

	// Observe must surface the condition on its Decision, not alarm.
	fetch := func() (Fetch, error) { return Fetch{Blocks: blocks, Interval: 32}, nil }
	y := make([]float64, m)
	y[0] = 1e6
	dec, err := det.Observe(y, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.ThresholdUnavailable || dec.Anomalous {
		t.Fatalf("decision: ThresholdUnavailable=%v Anomalous=%v", dec.ThresholdUnavailable, dec.Anomalous)
	}
}

// TestRebuildFDValidation covers the typed-error surface of the FD model
// build: empty pulls, foreign families, flow overlap and coverage gaps.
func TestRebuildFDValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const m, ell = 10, 2
	x := make([][]float64, 16)
	for i := range x {
		row := make([]float64, m)
		for j := range row {
			row[j] = 50 + rng.NormFloat64()
		}
		x[i] = row
	}
	det, err := NewDetector(DetectorConfig{
		NumFlows: m, WindowLen: 16, SketchLen: ell,
		Alpha: 0.01, Mode: RankFixed, FixedRank: 1,
		Family: sketch.FamilyFD,
	})
	if err != nil {
		t.Fatal(err)
	}
	good := fdBlocks(t, [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}, ell, x)
	if err := det.RebuildFD(good, 16); err != nil {
		t.Fatalf("good blocks: %v", err)
	}
	if err := det.RebuildFD(nil, 16); !errors.Is(err, ErrInput) {
		t.Fatalf("no blocks: %v", err)
	}
	overlap := fdBlocks(t, [][]int{{0, 1, 2, 3, 4}, {4, 6, 7, 8, 9}}, ell, x)
	if err := det.RebuildFD(overlap, 16); !errors.Is(err, ErrInput) {
		t.Fatalf("overlapping flows: %v", err)
	}
	gap := fdBlocks(t, [][]int{{0, 1, 2, 3, 4}}, ell, x)
	if err := det.RebuildFD(gap, 16); !errors.Is(err, ErrInput) {
		t.Fatalf("coverage gap: %v", err)
	}
	foreign := append([]sketch.Snapshot(nil), good...)
	foreign[0].Family = sketch.FamilyRandProj
	if err := det.RebuildFD(foreign, 16); !errors.Is(err, ErrInput) {
		t.Fatalf("foreign family: %v", err)
	}
}

// TestFDClusterEndToEnd runs the full lazy protocol on the FD family: an
// in-process cluster of FD monitors, per-block model builds at the NOC, and
// an injected structured anomaly that must still raise an alarm.
func TestFDClusterEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n, m, k := 200, 27, 2
	x := lowRankStream(rng, 3*n, m, k, 1)
	cl, err := NewCluster(ClusterConfig{
		NumFlows: m, NumMonitors: 3, WindowLen: n, Alpha: 0.002,
		Family: sketch.FamilyFD, FDEll: 4, FixedRank: 6,
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
		if i >= n {
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
	model := cl.Detector().Model()
	if model == nil || model.ThresholdUnavailable {
		t.Fatalf("model = %+v", model)
	}
}

// TestClusterFDEllDefaulting: an even split defaults ℓ per monitor; an uneven
// one must demand an explicit ℓ (monitors would otherwise disagree).
func TestClusterFDEllDefaulting(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{
		NumFlows: 9, NumMonitors: 3, WindowLen: 16, Alpha: 0.01,
		Family: sketch.FamilyFD, FixedRank: 1,
	}); err != nil {
		t.Fatalf("even split: %v", err)
	}
	if _, err := NewCluster(ClusterConfig{
		NumFlows: 10, NumMonitors: 3, WindowLen: 16, Alpha: 0.01,
		Family: sketch.FamilyFD, FixedRank: 1,
	}); !errors.Is(err, ErrConfig) {
		t.Fatalf("uneven split without explicit ell: %v", err)
	}
	if _, err := NewCluster(ClusterConfig{
		NumFlows: 31, NumMonitors: 3, WindowLen: 16, Alpha: 0.01,
		Family: sketch.FamilyFD, FDEll: 4, FixedRank: 1,
	}); err != nil {
		t.Fatalf("uneven split with explicit ell: %v", err)
	}
}

// TestDetectorRejectsFDThreeSigma: the 3σ rank heuristic needs the global
// sketch matrix, which FD never materializes.
func TestDetectorRejectsFDThreeSigma(t *testing.T) {
	_, err := NewDetector(DetectorConfig{
		NumFlows: 4, WindowLen: 16, SketchLen: 2, Alpha: 0.01,
		Mode: RankThreeSigma, Family: sketch.FamilyFD,
	})
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("fd + 3sigma: %v", err)
	}
}
