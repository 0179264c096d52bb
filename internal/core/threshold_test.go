package core

import (
	"math"
	"testing"
)

// degenerateSketches builds a diagonal sketch matrix whose spectrum has one
// dominant residual variance plus many equal small ones — φ1φ3/φ2² ≈ 2, so
// the Jackson–Mudholkar h0 goes negative on the full residual and a usable
// threshold only exists after residual-rank capping.
func degenerateSketches(m int) ([][]float64, []float64) {
	sketches := make([][]float64, m)
	for j := range sketches {
		s := make([]float64, m)
		if j == 0 {
			s[j] = 1
		} else {
			s[j] = 0.1 // 100 tail variances of 0.01 sum to the dominant 1
		}
		sketches[j] = s
	}
	return sketches, make([]float64, m)
}

// TestRebuildModelCapsDegenerateSpectrum asserts the detector recovers a
// usable control limit from an h0 ≤ 0 residual spectrum by residual-rank
// capping: the model carries a real (capped) threshold instead of being
// flagged threshold-less for the lifetime of the degenerate traffic mix.
func TestRebuildModelCapsDegenerateSpectrum(t *testing.T) {
	const m = 101
	det, err := NewDetector(DetectorConfig{
		NumFlows: m, WindowLen: 64, SketchLen: m,
		Alpha: 0.01, Mode: RankFixed, FixedRank: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	sketches, means := degenerateSketches(m)
	if err := det.RebuildModel(sketches, means, 1); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	model := det.Model()
	if model.ThresholdUnavailable {
		t.Fatal("capping must recover a threshold on this spectrum, not flag it unavailable")
	}
	if model.ThresholdCapped <= 0 {
		t.Fatalf("model.ThresholdCapped = %d, want > 0 (full residual is h0-degenerate)", model.ThresholdCapped)
	}
	if model.Threshold <= 0 || math.IsNaN(model.Threshold) || math.IsInf(model.Threshold, 0) {
		t.Fatalf("capped threshold = %v", model.Threshold)
	}
}

// TestObserveCappedThresholdAlarms drives the lazy protocol against the
// degenerate spectrum: with the capped threshold in place an oversized
// residual must alarm (the pre-capping behavior reported ThresholdUnavailable
// every interval, leaving the detector blind on such traffic), and once the
// tail equalizes the exact uncapped limit must take over again.
func TestObserveCappedThresholdAlarms(t *testing.T) {
	const m = 101
	det, err := NewDetector(DetectorConfig{
		NumFlows: m, WindowLen: 64, SketchLen: m,
		Alpha: 0.01, Mode: RankFixed, FixedRank: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	sketches, means := degenerateSketches(m)
	fetches := 0
	fetch := func() (Fetch, error) {
		fetches++
		return Fetch{Sketches: sketches, Means: means, Interval: int64(fetches)}, nil
	}
	x := make([]float64, m)
	x[0] = 100 // enormous residual, far past any threshold this spectrum admits
	dec, err := det.Observe(x, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if dec.ThresholdUnavailable {
		t.Fatal("capping must keep the threshold usable on this spectrum")
	}
	if !dec.Refreshed {
		t.Fatal("first observation must have built a model")
	}
	if !dec.Anomalous {
		t.Fatalf("capped threshold %v did not flag distance %v", dec.Threshold, dec.Distance)
	}

	// Once the fetch serves a well-conditioned spectrum the exact limit
	// returns: no capping, still alarming on the oversized residual.
	for j := 1; j < m; j++ {
		sketches[j][j] = 0.5 // equalize the tail → h0 > 0 uncapped
	}
	if err := det.RebuildModel(sketches, means, int64(fetches+1)); err != nil {
		t.Fatal(err)
	}
	if capped := det.Model().ThresholdCapped; capped != 0 {
		t.Fatalf("well-conditioned spectrum still capped %d components", capped)
	}
	dec, err = det.Observe(x, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if dec.ThresholdUnavailable || !dec.Anomalous {
		t.Fatalf("recovered spectrum: ThresholdUnavailable=%v Anomalous=%v", dec.ThresholdUnavailable, dec.Anomalous)
	}
}
