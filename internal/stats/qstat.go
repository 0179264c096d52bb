package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrDegenerate reports a residual spectrum on which the Jackson–Mudholkar
// expansion breaks down (h0 ≤ 0 or a non-finite Q): no trustworthy threshold
// exists. Callers must treat this as "threshold unavailable" — compare
// against nothing, never against NaN (NaN comparisons are always false, which
// silently disables alarming).
var ErrDegenerate = errors.New("stats: degenerate residual spectrum, Q threshold unavailable")

// QStatistic computes the Jackson–Mudholkar control limit Q_α for the
// squared prediction error of a PCA residual (paper eqs. 7–9 and 22–23).
//
// Inputs:
//   - singularValues: the full set of singular values η_1 ≥ … ≥ η_m of the
//     (centered) measurement matrix, or λ̂ of the sketch matrix;
//   - windowLen: the window length n used to convert singular values to
//     residual variances σ_j² = η_j²/(n−1);
//   - normalRank: r, the number of leading principal components spanning the
//     normal subspace (the residual uses components r+1 … m);
//   - alpha: the false-alarm rate, e.g. 0.01.
//
// The returned threshold is on the *distance* scale: a measurement y is
// flagged when ‖(I−PPᵀ)y‖ > threshold, matching d(y) > Q_ε in eq. (6).
func QStatistic(singularValues []float64, windowLen, normalRank int, alpha float64) (float64, error) {
	m := len(singularValues)
	if m == 0 {
		return 0, fmt.Errorf("%w: no singular values", ErrBadInput)
	}
	if normalRank < 0 || normalRank > m {
		return 0, fmt.Errorf("%w: normal rank %d with %d components", ErrBadInput, normalRank, m)
	}
	if windowLen < 2 {
		return 0, fmt.Errorf("%w: window length %d", ErrBadInput, windowLen)
	}
	if normalRank == m {
		// Empty residual subspace: everything projects into the normal
		// space, so the only consistent threshold is zero.
		return 0, nil
	}

	ca, err := UpperQuantile(alpha)
	if err != nil {
		return 0, err
	}

	// φ_k = Σ_{j>r} σ_j^{2k} with σ_j² = η_j²/(n−1)  (eqs. 8/23).
	denom := float64(windowLen - 1)
	var phi1, phi2, phi3 float64
	for _, eta := range singularValues[normalRank:] {
		s2 := eta * eta / denom
		phi1 += s2
		phi2 += s2 * s2
		phi3 += s2 * s2 * s2
	}
	if phi1 <= 0 {
		// Residual components carry no energy — the normal subspace
		// explains everything, so any nonzero residual is anomalous.
		return 0, nil
	}
	if phi2 <= 0 {
		// Degenerate: a single tiny residual direction. Fall back to a
		// Gaussian tail on the lone variance.
		return math.Sqrt(math.Max(0, phi1*(1+ca))), nil
	}

	h0 := 1 - 2*phi1*phi3/(3*phi2*phi2)
	if h0 <= 0 || math.IsNaN(h0) {
		// Jackson & Mudholkar note h0 ≤ 0 can occur for pathological
		// spectra. The exponent 1/h0 then blows Pow(inner, 1/h0) up to
		// +Inf or collapses it to 0 — there is no meaningful threshold on
		// such a spectrum, so report it instead of clamping (the old 1e-3
		// clamp produced astronomically large thresholds that never alarm).
		return 0, fmt.Errorf("%w: h0 = %v (phi1=%v phi2=%v phi3=%v)", ErrDegenerate, h0, phi1, phi2, phi3)
	}

	inner := ca*math.Sqrt(2*phi2*h0*h0)/phi1 + 1 + phi2*h0*(h0-1)/(phi1*phi1)
	if inner <= 0 {
		// Extremely heavy left tail; clamp at zero so everything with a
		// positive residual trips the detector rather than returning NaN.
		return 0, nil
	}
	q2 := phi1 * math.Pow(inner, 1/h0)
	if math.IsNaN(q2) || math.IsInf(q2, 0) {
		return 0, fmt.Errorf("%w: non-finite Q statistic", ErrDegenerate)
	}
	return math.Sqrt(q2), nil
}

// QStatisticCapped is QStatistic with residual-rank capping: when the full
// residual spectrum is degenerate for the Jackson–Mudholkar expansion
// (h0 ≤ 0 or a non-finite Q), it retries on sv[r:r+k] for k = full−1 … 1 —
// keeping only the k largest residual variances and treating the trailing
// tail, whose near-zero eigenvalues are what drive the φ ratios pathological,
// as numerically zero. Dropping trailing variance can only shrink φ1 and the
// threshold with it, so the capped limit alarms at least as readily as an
// exact one would — conservative in the direction that matters for
// detection. A single positive variance gives h0 = 1/3 > 0, so capping
// terminates with a usable limit whenever the leading residual component
// carries any energy; ErrDegenerate escapes only when no cap admits one.
//
// The second return is the number of trailing residual components dropped
// (0 means the exact uncapped threshold was usable).
func QStatisticCapped(singularValues []float64, windowLen, normalRank int, alpha float64) (float64, int, error) {
	q, err := QStatistic(singularValues, windowLen, normalRank, alpha)
	if err == nil || !errors.Is(err, ErrDegenerate) {
		return q, 0, err
	}
	full := len(singularValues) - normalRank
	lastErr := err
	for k := full - 1; k >= 1; k-- {
		q, err := QStatistic(singularValues[normalRank:normalRank+k], windowLen, 0, alpha)
		if err == nil {
			return q, full - k, nil
		}
		if !errors.Is(err, ErrDegenerate) {
			return 0, 0, err
		}
		lastErr = err
	}
	return 0, 0, lastErr
}
