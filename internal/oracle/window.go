package oracle

import (
	"math"

	"streampca/internal/mat"
	"streampca/internal/randproj"
)

// Window is the exact sliding-window reference for one flow: the raw
// (t, x) pairs still inside the time window [now−n+1, now], evicted by
// timestamp with exactly the rule vh.Histogram uses. Everything the variance
// histogram estimates is recomputed from this buffer with straightforward
// two-pass arithmetic.
type Window struct {
	n     int
	times []int64
	vals  []float64
}

// NewWindow returns an exact window of length n intervals.
func NewWindow(n int) *Window {
	return &Window{n: n}
}

// Push ingests the measurement x for interval t. Pushes must have strictly
// increasing t (matching the histogram's contract); elements whose time falls
// out of [t−n+1, t] are evicted.
func (w *Window) Push(t int64, x float64) {
	w.times = append(w.times, t)
	w.vals = append(w.vals, x)
	cut := 0
	expireBefore := t - int64(w.n)
	for cut < len(w.times) && w.times[cut] <= expireBefore {
		cut++
	}
	if cut > 0 {
		w.times = w.times[:copy(w.times, w.times[cut:])]
		w.vals = w.vals[:copy(w.vals, w.vals[cut:])]
	}
}

// Len returns the number of retained elements.
func (w *Window) Len() int { return len(w.vals) }

// TrailingStats computes the exact mean and sum of squared deviations over
// the k most recent elements (k ≤ Len), two-pass.
func (w *Window) TrailingStats(k int) (mean, ss float64) {
	if k <= 0 || k > len(w.vals) {
		return 0, 0
	}
	tail := w.vals[len(w.vals)-k:]
	for _, x := range tail {
		mean += x
	}
	mean /= float64(k)
	for _, x := range tail {
		d := x - mean
		ss += d * d
	}
	return mean, ss
}

// TrailingSumSquares returns Σx² over the k most recent elements — the
// magnitude scale the exactness tolerances are anchored to.
func (w *Window) TrailingSumSquares(k int) float64 {
	if k <= 0 || k > len(w.vals) {
		return 0
	}
	var s float64
	for _, x := range w.vals[len(w.vals)-k:] {
		s += x * x
	}
	return s
}

// TrailingSketch recomputes the sketch ẑ_k = (1/√l)·Σ (x_i − mean)·r_{t_i,k}
// exactly over the k most recent elements, using the centering mean the
// caller supplies (pass the histogram's own μ̂ to isolate the partial-sum
// arithmetic from the mean estimate). The second return carries a per-
// direction magnitude scale for tolerance normalization: it includes the raw
// |x_i| and |mean| alongside the deviation, because the histogram computes
// ẑ as Z − μ̂·R from partial sums whose roundoff scales with the raw
// magnitudes even when the deviations cancel exactly (constant flows).
func (w *Window) TrailingSketch(g *randproj.Generator, k int, mean float64) (sketch, scale []float64) {
	l := g.SketchLen()
	sketch = make([]float64, l)
	scale = make([]float64, l)
	if k <= 0 || k > len(w.vals) {
		return sketch, scale
	}
	row := make([]float64, l)
	lo := len(w.vals) - k
	for i := lo; i < len(w.vals); i++ {
		g.RowInto(w.times[i], row)
		d := w.vals[i] - mean
		mag := abs(d) + abs(w.vals[i]) + abs(mean)
		for j, r := range row {
			sketch[j] += d * r
			scale[j] += mag * abs(r)
		}
	}
	inv := 1 / math.Sqrt(float64(l))
	for j := range sketch {
		sketch[j] *= inv
		scale[j] *= inv
	}
	return sketch, scale
}

// VectorWindow retains the recent network-wide measurement vectors the NOC
// assembled, so spectral checks can rebuild the exact n×m window matrix a
// model was fitted on. It keeps extra history beyond n because the model in
// force was built a few intervals in the past.
type VectorWindow struct {
	n, m  int
	keep  int
	times []int64
	rows  [][]float64
}

// NewVectorWindow returns a vector window for n-interval models over m flows,
// retaining extra intervals of history beyond n (extra ≤ 0 selects 64).
func NewVectorWindow(n, m, extra int) *VectorWindow {
	if extra <= 0 {
		extra = 64
	}
	return &VectorWindow{n: n, m: m, keep: n + extra}
}

// Push records the completed vector of interval t (copied). Out-of-order or
// wrong-width rows are ignored — a gap simply makes the affected windows
// non-reconstructible, which downstream checks treat as "skip".
func (w *VectorWindow) Push(t int64, row []float64) {
	if len(row) != w.m {
		return
	}
	if len(w.times) > 0 && t <= w.times[len(w.times)-1] {
		return
	}
	w.times = append(w.times, t)
	w.rows = append(w.rows, append([]float64(nil), row...))
	if over := len(w.times) - w.keep; over > 0 {
		w.times = w.times[:copy(w.times, w.times[over:])]
		w.rows = w.rows[:copy(w.rows, w.rows[over:])]
	}
}

// MatrixEnding reconstructs the exact n×m window matrix for the window
// [t−n+1, t]. It succeeds only when every one of those n contiguous
// intervals was pushed — any gap (dropped interval, degraded substitution)
// returns ok=false and the caller skips the check.
func (w *VectorWindow) MatrixEnding(t int64) (y *mat.Matrix, t0 int64, ok bool) {
	// Locate t from the back.
	hi := len(w.times) - 1
	for hi >= 0 && w.times[hi] > t {
		hi--
	}
	if hi < 0 || w.times[hi] != t || hi+1 < w.n {
		return nil, 0, false
	}
	lo := hi - w.n + 1
	if w.times[lo] != t-int64(w.n)+1 {
		return nil, 0, false // gap somewhere inside: times strictly increase
	}
	y = mat.NewMatrix(w.n, w.m)
	for i := 0; i < w.n; i++ {
		copy(y.RowView(i), w.rows[lo+i])
	}
	return y, w.times[lo], true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
