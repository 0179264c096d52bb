// Package oracle is a differential-validation harness: it runs exact
// reference computations side-by-side with the streaming pipeline and asserts
// the paper's approximation guarantees, so silent numerical regressions
// (accumulated drift, dropped scale factors, degenerate thresholds) fail a
// check instead of quietly degrading detection quality.
//
// Two layers of checks, from tight to probabilistic:
//
//   - Exactness (tolerance ~1e-9 relative): the variance histogram keeps the
//     whole window, so its count must be the exact window's and its
//     mean/variance/sketch must match an exact recomputation over the same
//     elements to rounding error. This is the tier that catches the
//     incremental-totals drift class of bug.
//   - Spectral / detection (Lemmas 5–6, Theorem 2): the sketch model's
//     singular values within (1±3ε) of the exact window's (eq. 25), the
//     sketched covariance within √6·ε·‖Y‖²_F in Frobenius norm (eq. 26), the
//     anomaly distance within the additive Theorem 2 bound, and alarm
//     agreement with an exact batch detector outside a dead band. With an
//     exact window the only ε left is the projection's: these hold for
//     l = Ω(log n/ε²) (Lemma 4), so the checks take ε = EffectiveEpsilon(n, l).
//
// The package is consumed three ways: the seeded property suite in this
// package's tests (run in CI), the sampling Checker embedded in the monitor
// and NOC daemons behind -selfcheck, and the abilene-eval -oracle report.
package oracle

import (
	"fmt"
	"math"
)

// Violation is one failed bound.
type Violation struct {
	// Check names the bound, e.g. "vh-sketch-exact", "lemma5".
	Check string
	// Err is the observed dimensionless error measure and Bound the value it
	// was required to stay below.
	Err, Bound float64
	// Detail is a human-readable account with the raw numbers.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: err %.3e > bound %.3e (%s)", v.Check, v.Err, v.Bound, v.Detail)
}

// Result accumulates the outcome of one or more oracle passes.
type Result struct {
	// Checks counts individual bound assertions evaluated.
	Checks int
	// Violations lists the assertions that failed.
	Violations []Violation
	// MaxRelErr is the largest bound utilization (err/bound) observed
	// across all checks, violated or not. Values approaching 1 mean the
	// pipeline is drifting toward a bound violation — the early-warning
	// signal the oracle gauges export.
	MaxRelErr float64
}

// Merge folds another result into r.
func (r *Result) Merge(o Result) {
	r.Checks += o.Checks
	r.Violations = append(r.Violations, o.Violations...)
	if o.MaxRelErr > r.MaxRelErr {
		r.MaxRelErr = o.MaxRelErr
	}
}

// check records one assertion: err must not exceed bound. MaxRelErr tracks
// err/bound so checks with different units (relative exactness, Frobenius
// ratios, raw distance gaps) contribute comparably.
func (r *Result) check(name string, err, bound float64, format string, args ...any) {
	r.Checks++
	if bound > 0 && !math.IsNaN(err) {
		if u := err / bound; u > r.MaxRelErr {
			r.MaxRelErr = u
		}
	} else if err > 0 && r.MaxRelErr < 1 {
		r.MaxRelErr = 1 // zero-bound check violated: fully utilized
	}
	if err > bound || math.IsNaN(err) {
		r.Violations = append(r.Violations, Violation{
			Check: name, Err: err, Bound: bound, Detail: fmt.Sprintf(format, args...),
		})
	}
}

// Worst returns the violation with the largest Err/Bound overshoot, or nil.
func (r *Result) Worst() *Violation {
	var worst *Violation
	worstRatio := 0.0
	for i := range r.Violations {
		v := &r.Violations[i]
		ratio := v.Err / math.Max(v.Bound, 1e-300)
		if worst == nil || ratio > worstRatio {
			worst, worstRatio = v, ratio
		}
	}
	return worst
}

// jlConstant calibrates the Johnson–Lindenstrauss term of EffectiveEpsilon.
// Lemma 4 gives l = O(log n/ε²) with an unspecified constant; this value is
// set empirically so the seeded property scenarios pass with headroom while a
// gross error (a dropped 1/√l scale, a sign flip) still violates.
const jlConstant = 1.0

// EffectiveEpsilon is the projection error floor √(c·ln n / l): the paper's
// spectral bounds assume l = Ω(log n/ε²) (Lemma 4), and with an exact window
// the projection is the only approximation left.
func EffectiveEpsilon(windowLen, sketchLen int) float64 {
	n := math.Max(2, float64(windowLen))
	return math.Sqrt(jlConstant * math.Log(n) / math.Max(1, float64(sketchLen)))
}

// relTo returns |a−b| normalized by the larger of |b| and floor — the shared
// shape of the exactness comparisons (floor keeps near-zero references from
// exploding the ratio; pick it proportional to the data's magnitude).
func relTo(a, b, floor float64) float64 {
	d := math.Abs(a - b)
	den := math.Max(math.Abs(b), floor)
	if den <= 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d / den
}
