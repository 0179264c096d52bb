package oracle

import (
	"fmt"
	"math"

	"streampca/internal/randproj"
	"streampca/internal/vh"
)

// exactTolPerElement scales the exactness tolerances: incremental float error
// grows with the number of elements folded, so the allowed relative error is
// exactTolPerElement·count with a floor of exactTolFloor. At a 4032-interval
// window this allows ~4e-9 — anything past it means a real arithmetic bug
// (the pre-rebase totals drift exceeded 1e-1).
const (
	exactTolPerElement = 1e-12
	exactTolFloor      = 1e-9
)

func exactTol(count int) float64 {
	return math.Max(exactTolFloor, exactTolPerElement*float64(count))
}

// CheckHistogram differentially validates one variance histogram against the
// exact window w, which must have been fed exactly the same (t, x) updates.
//
// The histogram keeps the whole window, so it must cover exactly w's
// elements, and its mean, variance and sketch over them must match an exact
// recomputation to rounding error.
func CheckHistogram(h *vh.Histogram, w *Window, g *randproj.Generator) Result {
	var res Result
	k := int(h.Count())

	if k != w.Len() {
		res.Checks++
		res.Violations = append(res.Violations, Violation{
			Check: "vh-coverage", Err: math.Inf(1), Bound: 0,
			Detail: fmt.Sprintf("histogram covers %d elements, window retains %d", k, w.Len()),
		})
		return res
	}
	if k == 0 {
		return res
	}
	tol := exactTol(k)
	meanX, ssX := w.TrailingStats(k)
	sumSq := w.TrailingSumSquares(k)
	rms := math.Sqrt(sumSq / float64(k))

	meanHat := h.EstimateMean()
	res.check("vh-mean-exact", relTo(meanHat, meanX, rms), tol,
		"mean %.17g vs exact %.17g over %d elements", meanHat, meanX, k)

	varHat := h.EstimateVariance()
	// Anchor the deviation scale to Σx²: roundoff in either computation grows
	// with the raw magnitudes, not with the (possibly cancelling) deviations.
	res.check("vh-var-exact", relTo(varHat, ssX, sumSq), tol,
		"variance %.17g vs exact %.17g (sumsq %.3g, %d elements)", varHat, ssX, sumSq, k)

	if g != nil {
		sk := h.Sketch()
		exact, scale := w.TrailingSketch(g, k, meanHat)
		worst, worstK := 0.0, -1
		for j := range exact {
			e := relTo(sk[j], exact[j], scale[j])
			if e > worst {
				worst, worstK = e, j
			}
		}
		res.check("vh-sketch-exact", worst, tol,
			"sketch direction %d: %.17g vs exact %.17g (%d elements)",
			worstK, at(sk, worstK), at(exact, worstK), k)
	}
	return res
}

func at(s []float64, i int) float64 {
	if i < 0 || i >= len(s) {
		return math.NaN()
	}
	return s[i]
}
