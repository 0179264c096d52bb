package core

import (
	"fmt"
	"math"
	"math/rand"
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

// TestRebuildIsScaleInvariant rebuilds one set of sketches, means and
// traffic at 2^−40, 1 and 2^40 — volumes in another unit, down to a sketch
// Gram near 10⁻¹⁴ — through both sides of the model build (l = 32 and
// l = 100 at m = 81) under every rank rule: the basis and rank must be bit
// for bit the unscaled build's, and the singular values, threshold and
// distances that build's times the scale, exactly.
func TestRebuildIsScaleInvariant(t *testing.T) {
	const m = 81
	for _, l := range []int{32, 100} {
		for _, mode := range []RankMode{RankFixed, RankEnergy, RankThreeSigma} {
			rng := rand.New(rand.NewSource(int64(l)))
			sketches := make([][]float64, m)
			means := make([]float64, m)
			for j := range sketches {
				sketches[j] = make([]float64, l)
				for k := range sketches[j] {
					sketches[j][k] = 1e3 * rng.NormFloat64() * float64(1+j%5)
				}
				means[j] = 1e4 * rng.Float64()
			}
			traffic := make([][]float64, 4)
			for i := range traffic {
				traffic[i] = make([]float64, m)
				for j := range traffic[i] {
					traffic[i][j] = means[j] + 1e3*rng.NormFloat64()
				}
			}
			build := func(e int) (*Model, []float64) {
				t.Helper()
				det, err := NewDetector(DetectorConfig{NumFlows: m, WindowLen: 144, SketchLen: l, Alpha: 0.01, Mode: mode, FixedRank: 4})
				if err != nil {
					t.Fatal(err)
				}
				scale := math.Ldexp(1, e)
				sk := make([][]float64, m)
				mu := make([]float64, m)
				for j := range sk {
					sk[j] = make([]float64, l)
					for k, v := range sketches[j] {
						sk[j][k] = v * scale
					}
					mu[j] = means[j] * scale
				}
				if err := det.RebuildModel(sk, mu, 1); err != nil {
					t.Fatalf("l=%d %v 2^%d: %v", l, mode, e, err)
				}
				var dist []float64
				for _, x := range traffic {
					y := make([]float64, m)
					for j, v := range x {
						y[j] = v * scale
					}
					d, err := det.Distance(y)
					if err != nil {
						t.Fatal(err)
					}
					dist = append(dist, d)
				}
				return det.Model(), dist
			}
			want, wantDist := build(0)
			for _, e := range []int{-40, 40} {
				name := fmt.Sprintf("l=%d %v 2^%d", l, mode, e)
				got, dist := build(e)
				if got.Rank != want.Rank || got.ThresholdUnavailable != want.ThresholdUnavailable {
					t.Fatalf("%s: rank %d (threshold unavailable %v), unscaled %d (%v)",
						name, got.Rank, got.ThresholdUnavailable, want.Rank, want.ThresholdUnavailable)
				}
				for i, r := 0, got.Components.Rows(); i < r; i++ {
					for j := 0; j < got.Rank; j++ {
						if a, b := got.Components.At(i, j), want.Components.At(i, j); math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("%s: basis[%d][%d] = %v, unscaled %v", name, i, j, a, b)
						}
					}
				}
				same := func(what string, got, want float64) {
					t.Helper()
					if w := math.Ldexp(want, e); math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("%s: %s = %v, want %v", name, what, got, w)
					}
				}
				for j, s := range want.Singular {
					same(fmt.Sprintf("λ̂_%d", j), got.Singular[j], s)
				}
				same("threshold", got.Threshold, want.Threshold)
				for i, d := range wantDist {
					same(fmt.Sprintf("distance %d", i), dist[i], d)
				}
			}
		}
	}
}
