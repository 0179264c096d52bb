package mat

import (
	"fmt"
	"math"
	"sort"
)

// EigenSym holds the eigendecomposition A = V·diag(Values)·Vᵀ of a symmetric
// matrix. Values are sorted in descending order and Vectors' column j is the
// unit eigenvector for Values[j].
type EigenSym struct {
	// Values are the eigenvalues in descending order.
	Values []float64
	// Vectors is the n×n orthonormal matrix whose columns are eigenvectors.
	Vectors *Matrix
}

// maxQLIterations bounds the implicit QL iteration per eigenvalue. EISPACK's
// tql2 has shipped with this budget since 1972; convergence is cubic and two
// or three iterations per eigenvalue is the norm.
const maxQLIterations = 30

// SymEigen computes the eigendecomposition of the symmetric matrix a by
// Householder reduction to tridiagonal form followed by the implicit-shift QL
// iteration with accumulated transformations (EISPACK tred2 + tql2): ≈ 8n³
// flops against the ≈ 70n³ of the Jacobi sweeps it replaced on the alarm
// path (SymEigenJacobi, which Frequent Directions keeps). The result is a
// pure function of the input.
//
// The matrix is not modified. It returns ErrShape for non-square input,
// ErrNotFinite for NaN/Inf entries and ErrNoConverge if an eigenvalue does
// not settle within maxQLIterations or the iteration overflows.
func SymEigen(a *Matrix) (*EigenSym, error) {
	z, err := symmetrized(a)
	if err != nil {
		return nil, err
	}
	n := z.rows
	if n == 0 {
		return finishEigen(nil, z), nil
	}
	d, e := make([]float64, n), make([]float64, n)
	tridiagonalize(z.data, n, d, e)
	if err := tridiagonalQL(z.data, n, d, e); err != nil {
		return nil, err
	}
	if !VecIsFinite(d) || !z.IsFinite() {
		return nil, fmt.Errorf("%w: ql eigendecomposition overflowed", ErrNoConverge)
	}
	return finishEigen(d, z), nil
}

// symmetrized validates an eigensolver's input and returns the working copy
// ½(A+Aᵀ): the caller's matrix stays intact and slight asymmetries from
// floating-point accumulation are averaged out.
func symmetrized(a *Matrix) (*Matrix, error) {
	n := a.rows
	if n != a.cols {
		return nil, fmt.Errorf("%w: eigendecomposition of %dx%d", ErrShape, a.rows, a.cols)
	}
	if !a.IsFinite() {
		return nil, fmt.Errorf("%w: eigendecomposition input", ErrNotFinite)
	}
	w := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w.data[i*n+j] = 0.5 * (a.data[i*n+j] + a.data[j*n+i])
		}
	}
	return w, nil
}

// tridiagonalize reduces the symmetric n×n matrix in z to tridiagonal form
// QᵀAQ by n−2 Householder reflections (EISPACK tred2). On return d holds the
// diagonal, e[1:] the subdiagonal, and z the accumulated Q — transposed: row j
// of z is column j of Q. tred2 is a column-major routine; keeping its layout
// in a row-major slice makes every O(n³) inner loop here, and every plane
// rotation in tridiagonalQL, walk contiguous memory instead of striding by n.
func tridiagonalize(z []float64, n int, d, e []float64) {
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale the reflector's source to avoid under/overflow.
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = z[j*n+i-1]
				z[j*n+i] = 0
				z[i*n+j] = 0
			}
			d[i] = 0
			continue
		}
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		for j := 0; j < i; j++ {
			e[j] = 0
		}
		// Apply the similarity transformation to the leading i×i block:
		// e ← A·u/h, then A ← A − u·qᵀ − q·uᵀ with q = e − (uᵀe/2h)·u.
		zi := z[i*n : i*n+i]
		for j := 0; j < i; j++ {
			f = d[j]
			zi[j] = f
			zj := z[j*n : j*n+i]
			g = e[j] + zj[j]*f
			for k := j + 1; k < i; k++ {
				g += zj[k] * d[k]
				e[k] += zj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			zj := z[j*n : j*n+i]
			for k := j; k < i; k++ {
				zj[k] -= f*e[k] + g*d[k]
			}
			d[j] = zj[i-1]
			z[j*n+i] = 0
		}
		d[i] = h
	}
	// Accumulate the reflections into Q, smallest block first.
	for i := 0; i < n-1; i++ {
		z[i*n+n-1] = z[i*n+i]
		z[i*n+i] = 1
		u := z[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			for k := range u {
				d[k] = u[k] / h
			}
			for j := 0; j <= i; j++ {
				zj := z[j*n : j*n+i+1]
				var g float64
				for k, uk := range u {
					g += uk * zj[k]
				}
				for k := range zj {
					zj[k] -= g * d[k]
				}
			}
		}
		for k := range u {
			u[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
		z[j*n+n-1] = 0
	}
	z[n*n-1] = 1
	e[0] = 0
}

// tridiagonalQL diagonalizes the tridiagonal matrix (d, e) from
// tridiagonalize by the implicit-shift QL iteration (EISPACK tql2), applying
// every plane rotation to rows i and i+1 of z. On return d holds the
// eigenvalues (unsorted) and row j of z the unit eigenvector of d[j].
func tridiagonalQL(z []float64, n int, d, e []float64) error {
	copy(e, e[1:])
	e[n-1] = 0

	const eps = 0x1p-52
	var f, tst1 float64
	for l := 0; l < n; l++ {
		// Find the first negligible subdiagonal element at or below l; the
		// loop bound (not e[n−1] = 0) ends it, so a NaN cannot run m past d.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		// m == l: d[l] is an eigenvalue already. Otherwise iterate on the
		// block l..m until e[l] is negligible.
		for iter := 0; math.Abs(e[l]) > eps*tst1; iter++ {
			if iter == maxQLIterations {
				return fmt.Errorf("%w: ql eigendecomposition: eigenvalue %d of %d after %d iterations",
					ErrNoConverge, l, n, maxQLIterations)
			}
			// Wilkinson shift from the leading 2×2 block.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h

			// Implicit QL sweep from m−1 up to l.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])

				zi := z[i*n : (i+1)*n]
				zi1 := z[(i+1)*n : (i+2)*n]
				for k, lo := range zi {
					hi := zi1[k]
					zi1[k] = s*lo + c*hi
					zi[k] = c*lo - s*hi
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// finishEigen sorts the eigenpairs in descending eigenvalue order and
// packages the result. Row i of vt is the eigenvector of d[i]; the output
// holds eigenvectors as columns.
func finishEigen(d []float64, vt *Matrix) *EigenSym {
	n := len(d)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return d[order[a]] > d[order[b]] })

	values := make([]float64, n)
	vectors := NewMatrix(n, n)
	for j, src := range order {
		values[j] = d[src]
		for i, x := range vt.data[src*n : (src+1)*n] {
			vectors.data[i*n+j] = x
		}
	}
	return &EigenSym{Values: values, Vectors: vectors}
}
