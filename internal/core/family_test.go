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

// TestRebuildFDMergedBlocksStayOnOneMonitor: an aggregator-merged FD block
// stacks rows that are each zero outside one source monitor's flows, so its
// B·Bᵀ is block diagonal and mat.SymEigen solves it block by block. Every
// model component Bᵀu/σ must then be non-zero on one source monitor's flows
// only, exactly — not to rounding.
func TestRebuildFDMergedBlocksStayOnOneMonitor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const monitors, m, ell, n, rank = 4, 48, 4, 59, 8
	assign := make([][]int, monitors)
	owner := make([]int, m)
	for id := 0; id < m; id++ { // flows interleaved across monitors
		assign[id%monitors] = append(assign[id%monitors], id)
		owner[id] = id % monitors
	}
	x := make([][]float64, n)
	for i := range x {
		row := make([]float64, m)
		for j := range row {
			row[j] = 100 + 10*rng.NormFloat64()
		}
		x[i] = row
	}
	mon := fdBlocks(t, assign, ell, x)
	var merged []sketch.Snapshot
	for _, pair := range [][]int{{0, 2}, {1, 3}} {
		b, err := sketch.MergeColumns([]sketch.Snapshot{mon[pair[0]], mon[pair[1]]}, ell)
		if err != nil {
			t.Fatal(err)
		}
		if b.FDDelta <= mon[pair[0]].FDDelta+mon[pair[1]].FDDelta {
			t.Fatalf("merge of monitors %v never shrank", pair)
		}
		merged = append(merged, b)
	}
	det, err := NewDetector(DetectorConfig{
		NumFlows: m, WindowLen: n, SketchLen: ell,
		Alpha: 0.01, Mode: RankFixed, FixedRank: rank,
		Family: sketch.FamilyFD,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.RebuildFD(merged, n); err != nil {
		t.Fatal(err)
	}
	comp := det.Model().Components
	for j := 0; j < comp.Cols(); j++ {
		support := map[int]bool{}
		for id := 0; id < m; id++ {
			if comp.At(id, j) != 0 {
				support[owner[id]] = true
			}
		}
		if len(support) != 1 {
			t.Errorf("component %d is non-zero on the flows of %d monitors, want exactly 1", j, len(support))
		}
	}
}

// TestFDClusterEndToEnd runs the full lazy protocol on the FD family: three
// striped FD monitors, per-block model builds at the detector, and an
// injected structured anomaly that must still raise an alarm.
func TestFDClusterEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n, m, k := 200, 27, 2
	x := lowRankStream(rng, 3*n, m, k, 1)
	mons, fetch, _ := striped(t, Params{Family: sketch.FamilyFD, NumFlows: m, WindowLen: n, SketchLen: 4}, 3, 0, nil)
	det, err := NewDetector(DetectorConfig{NumFlows: m, WindowLen: n, SketchLen: 4, Alpha: 0.002,
		Family: sketch.FamilyFD, FixedRank: 6})
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
		if err := feed(mons, int64(i+1), row); err != nil {
			t.Fatal(err)
		}
		dec, err := det.Observe(observed, fetch)
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
	model := det.Model()
	if model == nil || model.ThresholdUnavailable {
		t.Fatalf("model = %+v", model)
	}
}

// TestClusterFDEllDefaulting: striping FD monitors evenly defaults ℓ per
// monitor; an uneven split must demand an explicit ℓ (monitors would
// otherwise disagree).
func TestClusterFDEllDefaulting(t *testing.T) {
	fd := Params{Family: sketch.FamilyFD, NumFlows: 9, WindowLen: 16}
	if _, _, p := striped(t, fd, 3, 0, nil); p.SketchLen != sketch.DefaultEll(3) {
		t.Fatalf("even split: ℓ %d, want %d", p.SketchLen, sketch.DefaultEll(3))
	}
	fd.NumFlows = 10
	if _, _, err := fd.Stripe(3); !errors.Is(err, ErrConfig) {
		t.Fatalf("uneven split without explicit ell: %v", err)
	}
	fd.NumFlows, fd.SketchLen = 31, 4
	if _, _, p := striped(t, fd, 3, 0, nil); p.SketchLen != 4 {
		t.Fatalf("uneven split with explicit ell: ℓ %d", p.SketchLen)
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
