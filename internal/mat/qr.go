package mat

import (
	"fmt"
	"math"
	"slices"
)

// QR holds a Householder QR decomposition A = Q·R with Q n×m having
// orthonormal columns (thin form, n ≥ m) and R m×m upper triangular.
type QR struct {
	Q *Matrix
	R *Matrix
}

// ComputeQR computes the thin QR decomposition of a (requires Rows ≥ Cols)
// using Householder reflections.
func ComputeQR(a *Matrix) (*QR, error) {
	var w LSQ
	if err := w.factor(a); err != nil {
		return nil, err
	}
	n, m := a.rows, a.cols
	thinQ := NewMatrix(n, m)
	for i := 0; i < n; i++ {
		copy(thinQ.data[i*m:(i+1)*m], w.q[i*n:i*n+m])
	}
	thinR := NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			thinR.data[i*m+j] = w.r[i*m+j]
		}
	}
	return &QR{Q: thinQ, R: thinR}, nil
}

// LSQ solves least-squares problems by Householder QR in storage it keeps:
// once it has grown to a problem's size, a solve of that size or smaller
// allocates nothing. The zero value is ready; an LSQ is not safe for
// concurrent use.
type LSQ struct {
	// r is the reduced copy of the n×m A, q the accumulated n×n product of
	// the reflections, v one reflection vector; qtb and x are the solve's Qᵀb
	// and result. All are row-major.
	r, q, v, qtb, x []float64
}

// factor reduces a copy of a to R in w.r, accumulating Q in w.q.
func (w *LSQ) factor(a *Matrix) error {
	n, m := a.rows, a.cols
	if n < m {
		return fmt.Errorf("%w: qr of %dx%d requires rows >= cols", ErrShape, n, m)
	}
	if !a.IsFinite() {
		return fmt.Errorf("%w: qr input", ErrNotFinite)
	}
	r := append(w.r[:0], a.data...)
	// Accumulate Q as a full n×n product; the caller trims it to thin form.
	q := slices.Grow(w.q[:0], n*n)[:n*n]
	clear(q)
	for i := 0; i < n; i++ {
		q[i*n+i] = 1
	}
	w.r, w.q, w.v = r, q, slices.Grow(w.v[:0], n)[:n]

	for k := 0; k < m; k++ {
		// Build the Householder vector for column k below the diagonal.
		var normX float64
		for i := k; i < n; i++ {
			x := r[i*m+k]
			normX += x * x
		}
		normX = math.Sqrt(normX)
		if normX == 0 {
			continue
		}
		alpha := -math.Copysign(normX, r[k*m+k])
		v := w.v[:n-k]
		v[0] = r[k*m+k] - alpha
		for i := k + 1; i < n; i++ {
			v[i-k] = r[i*m+k]
		}
		vnorm := Norm(v)
		if vnorm == 0 {
			continue
		}
		ScaleVec(v, 1/vnorm)

		// R ← (I − 2vvᵀ)R on the trailing block.
		for j := k; j < m; j++ {
			var dot float64
			for i := k; i < n; i++ {
				dot += v[i-k] * r[i*m+j]
			}
			dot *= 2
			for i := k; i < n; i++ {
				r[i*m+j] -= dot * v[i-k]
			}
		}
		// Q ← Q(I − 2vvᵀ).
		for i := 0; i < n; i++ {
			var dot float64
			for j := k; j < n; j++ {
				dot += q[i*n+j] * v[j-k]
			}
			dot *= 2
			for j := k; j < n; j++ {
				q[i*n+j] -= dot * v[j-k]
			}
		}
	}
	return nil
}

// Solve returns x minimizing ‖a·x − b‖₂. x is w's storage, valid until the
// next Solve.
func (w *LSQ) Solve(a *Matrix, b []float64) ([]float64, error) {
	if len(b) != a.rows {
		return nil, fmt.Errorf("%w: least squares %dx%d with rhs %d", ErrShape, a.rows, a.cols, len(b))
	}
	if err := w.factor(a); err != nil {
		return nil, err
	}
	n, m := a.rows, a.cols
	// Qᵀb over the thin Q, the first m columns of w.q.
	w.qtb, w.x = slices.Grow(w.qtb[:0], m)[:m], slices.Grow(w.x[:0], m)[:m]
	clear(w.qtb)
	for i, bi := range b {
		if bi != 0 {
			addMul(w.qtb, w.q[i*n:i*n+m], bi)
		}
	}
	// The leading m×m block of the reduced copy is R.
	return w.x, backSubstitute(w.x, w.r, m, w.qtb)
}

// backSubstitute solves R·x = b into x by back substitution, R the upper
// triangle of the m×m row-major block at the head of r. It returns
// ErrSingular when a diagonal entry is (near) zero.
func backSubstitute(x, r []float64, m int, b []float64) error {
	for i := m - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < m; j++ {
			s -= r[i*m+j] * x[j]
		}
		d := r[i*m+i]
		if math.Abs(d) < 1e-300 {
			return fmt.Errorf("%w: zero pivot at %d", ErrSingular, i)
		}
		x[i] = s / d
	}
	return nil
}
