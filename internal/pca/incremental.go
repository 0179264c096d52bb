package pca

import (
	"fmt"
	"math"

	"streampca/internal/mat"
)

// Incremental maintains the exact sliding-window PCA state in O(m²) per
// interval instead of O(n·m²): it keeps the window ring plus the running
// sums Σx and Σ(x−ref)(x−ref)ᵀ, from which the centered Gram matrix is
// reconstructed on demand. The reference shift (the first vector seen) keeps
// the second-moment accumulation numerically well conditioned for
// large-magnitude traffic volumes.
//
// Incremental produces bitwise-comparable results to Fit (same NewModel,
// same Gram matrix up to rounding); SlidingDetector runs on it, which makes
// per-interval Lakhina retraining affordable at the paper's scale.
type Incremental struct {
	n, m   int
	window *Window
	ref    []float64
	sum    []float64   // Σ (x − ref)
	moment *mat.Matrix // Σ (x − ref)(x − ref)ᵀ
	seeded bool
}

// NewIncremental returns an empty incremental PCA over windows of n vectors
// of m flows.
func NewIncremental(n, m int) (*Incremental, error) {
	w, err := NewWindow(n, m)
	if err != nil {
		return nil, err
	}
	return &Incremental{
		n:      n,
		m:      m,
		window: w,
		sum:    make([]float64, m),
		moment: mat.NewMatrix(m, m),
	}, nil
}

// Len returns the number of vectors currently in the window.
func (inc *Incremental) Len() int { return inc.window.Len() }

// Full reports whether the window has n vectors.
func (inc *Incremental) Full() bool { return inc.window.Full() }

// Push ingests a measurement vector, evicting the oldest when full.
func (inc *Incremental) Push(x []float64) error {
	if len(x) != inc.m {
		return fmt.Errorf("%w: vector of %d for %d flows", ErrInput, len(x), inc.m)
	}
	for j, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite value at flow %d", ErrInput, j)
		}
	}
	if !inc.seeded {
		inc.ref = append([]float64(nil), x...)
		inc.seeded = true
	}
	if inc.window.Full() {
		// Evict the oldest row from the running sums before it is
		// overwritten in the ring.
		oldest, err := inc.window.Oldest()
		if err != nil {
			return err
		}
		inc.accumulate(oldest, -1)
	}
	if err := inc.window.Push(x); err != nil {
		return err
	}
	inc.accumulate(x, +1)
	return nil
}

// accumulate folds ±(x−ref) into the running first and second moments.
func (inc *Incremental) accumulate(x []float64, sign float64) {
	d := make([]float64, inc.m)
	for j := range d {
		d[j] = x[j] - inc.ref[j]
		inc.sum[j] += sign * d[j]
	}
	for a := 0; a < inc.m; a++ {
		da := d[a]
		if da == 0 {
			continue
		}
		row := inc.moment.RowView(a)
		for b := a; b < inc.m; b++ {
			row[b] += sign * da * d[b]
		}
	}
}

// Model computes the current PCA. The window must be full.
func (inc *Incremental) Model() (*Model, error) {
	if !inc.window.Full() {
		return nil, fmt.Errorf("%w: window has %d of %d rows", ErrInput, inc.window.Len(), inc.n)
	}
	nf := float64(inc.n)
	// Centered Gram: G = M − (1/n)·s·sᵀ where M and s are the shifted
	// moments (the reference shift cancels in both terms).
	g := mat.NewMatrix(inc.m, inc.m)
	for a := 0; a < inc.m; a++ {
		mrow := inc.moment.RowView(a)
		grow := g.RowView(a)
		sa := inc.sum[a]
		for b := a; b < inc.m; b++ {
			grow[b] = mrow[b] - sa*inc.sum[b]/nf
		}
	}
	for a := 0; a < inc.m; a++ {
		for b := a + 1; b < inc.m; b++ {
			g.Set(b, a, g.At(a, b))
		}
	}
	means := make([]float64, inc.m)
	for j := range means {
		means[j] = inc.ref[j] + inc.sum[j]/nf
	}
	return NewModel(g, means, inc.n)
}
