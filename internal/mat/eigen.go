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
// iteration with accumulated transformations (EISPACK tred2 + tql2), ≈ 8n³
// flops. The result is a pure function of the input. Callers that read only
// the leading eigenvectors want SymEigenLeading, which skips the ≈ 6n³ of it
// that builds the rest.
//
// A reducible matrix, one whose exact non-zero off-diagonal pattern falls
// into several connected components, is solved one principal sub-block at a
// time: every eigenvector is exactly zero outside its component's indices,
// where a whole-matrix reduction would leave rounding residue. Frequent
// Directions relies on it (sketch.FD, core.Detector.RebuildFD): an
// aggregator-merged buffer's B·Bᵀ is block diagonal over its source monitors,
// and each rebuilt row stays on one monitor's columns. A dense matrix is one
// component and takes the whole-matrix path.
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
	blocks := components(z)
	if len(blocks) <= 1 {
		d, err := qlEigen(z)
		if err != nil {
			return nil, err
		}
		return finishEigen(d, z), nil
	}
	// A block's eigenpairs take the slots of its indices: d[idx[i]] is its
	// i-th eigenvalue, row idx[i] of vt that eigenvector scattered to n. A
	// diagonal matrix, n blocks of one, thus reaches finishEigen exactly as
	// the whole-matrix path hands it over, and sorts the same.
	d, vt := make([]float64, n), NewMatrix(n, n)
	for _, idx := range blocks {
		k := len(idx)
		sub := NewMatrix(k, k)
		for i, r := range idx {
			for j, c := range idx {
				sub.data[i*k+j] = z.data[r*n+c]
			}
		}
		ds, err := qlEigen(sub)
		if err != nil {
			return nil, err
		}
		for i, r := range idx {
			d[r] = ds[i]
			for j, c := range idx {
				vt.data[r*n+c] = sub.data[i*k+j]
			}
		}
	}
	return finishEigen(d, vt), nil
}

// qlEigen runs tred2 + tql2 on the symmetric z in place and returns the
// eigenvalues (unsorted), leaving row i of z the eigenvector of the i-th.
func qlEigen(z *Matrix) ([]float64, error) {
	n := z.rows
	if n == 0 {
		return nil, nil
	}
	d, e := make([]float64, n), make([]float64, n)
	tridiagonalize(z.data, n, d, e)
	accumulateReflections(z.data, n, d, e)
	if err := tridiagonalQL(d, e, func(sw qlSweep) { sw.rotateRows(z.data, n) }); err != nil {
		return nil, err
	}
	if !VecIsFinite(d) || !z.IsFinite() {
		return nil, fmt.Errorf("%w: ql eigendecomposition overflowed", ErrNoConverge)
	}
	return d, nil
}

// components partitions the indices of the symmetric z into the connected
// components of its exact non-zero off-diagonal pattern, each in ascending
// order and ordered by smallest index. A dense matrix is one component.
func components(z *Matrix) [][]int {
	n := z.rows
	seen := make([]bool, n)
	var blocks [][]int
	for s := range seen {
		if seen[s] {
			continue
		}
		seen[s] = true
		block := []int{s}
		for q := 0; q < len(block); q++ {
			for j, x := range z.data[block[q]*n : (block[q]+1)*n] {
				if x != 0 && !seen[j] {
					seen[j] = true
					block = append(block, j)
				}
			}
		}
		sort.Ints(block)
		blocks = append(blocks, block)
	}
	return blocks
}

// EigenLeading is a two-phase symmetric eigendecomposition: every eigenvalue
// now, the eigenvectors only as many as asked for. It keeps the Householder
// reflectors and the QL rotation log of its one solve, so Vectors(k) costs
// O(k·(n² + rotations)) instead of the O(n³) of accumulating all n vectors.
// The value is a pure function of the input matrix, like SymEigen's.
type EigenLeading struct {
	// Values are all n eigenvalues in descending order, bit for bit the
	// Values SymEigen returns for the same irreducible matrix.
	Values []float64

	n int
	// refl holds reflector i in row i's first i entries (tred2's layout);
	// h[i] is its uᵀu/2, 0 for a reflection tridiagonalize skipped.
	refl []float64
	h    []float64
	// sweeps is the QL rotation log, in the order the sweeps ran.
	sweeps []qlSweep
	// order[j] is the QL index of Values[j].
	order []int
}

// rotationChunk is how many floats SymEigenLeading's log allocates at a time
// (32 KiB): the log of an m = 144 rebuild is ≈ 200 KB, and letting one slice
// grow by append would allocate several times that to reach it.
const rotationChunk = 4096

// SymEigenLeading factors the symmetric matrix a for its eigenvalues and
// leading eigenvectors: Householder reduction without accumulating Q, and one
// QL iteration on the tridiagonal that logs its plane rotations instead of
// applying them. Values are available at once and, for an irreducible matrix
// (one component, see SymEigen), bitwise equal to SymEigen's; a reducible one
// is not split here, so they agree to rounding error. Its one caller, the
// randproj model build, factors a dense Gram of either side of the sketch
// matrix, the l×l ẐẐᵀ or the m×m ẐᵀẐ. Vectors and Vector build
// eigenvectors on demand by replaying the log backward on unit vectors and
// reflecting the result through the stored Householder vectors. They agree
// with SymEigen's to rounding error (the same transformations, applied in
// another order).
//
// Errors are SymEigen's, reported here rather than by Vectors.
func SymEigenLeading(a *Matrix) (*EigenLeading, error) {
	z, err := symmetrized(a)
	if err != nil {
		return nil, err
	}
	n := z.rows
	f := &EigenLeading{Values: []float64{}, n: n}
	if n == 0 {
		return f, nil
	}
	h, e := make([]float64, n), make([]float64, n)
	tridiagonalize(z.data, n, h, e)
	// tridiagonalize leaves reflector i's scale in h[i] and the tridiagonal's
	// diagonal on z's; accumulateReflections would copy it out the same way.
	d := make([]float64, n)
	for j := range d {
		d[j] = z.data[j*n+j]
	}
	// The log keeps each sweep's (c, s) pairs in a slice carved from chunks
	// of rotationChunk floats, since tridiagonalQL reuses its own buffer.
	var free []float64
	finite := true
	f.sweeps = make([]qlSweep, 0, 2*n)
	err = tridiagonalQL(d, e, func(sw qlSweep) {
		if len(free) < len(sw.cs) {
			free = make([]float64, max(len(sw.cs), rotationChunk))
		}
		own := free[:len(sw.cs):len(sw.cs)]
		free = free[len(sw.cs):]
		copy(own, sw.cs)
		finite = finite && VecIsFinite(own)
		f.sweeps = append(f.sweeps, qlSweep{lo: sw.lo, hi: sw.hi, cs: own})
	})
	if err != nil {
		return nil, err
	}
	if !finite || !VecIsFinite(d) || !z.IsFinite() {
		return nil, fmt.Errorf("%w: ql eigendecomposition overflowed", ErrNoConverge)
	}
	f.refl, f.h = z.data, h
	f.order = descendingOrder(d)
	f.Values = make([]float64, n)
	for j, src := range f.order {
		f.Values[j] = d[src]
	}
	return f, nil
}

// Vectors returns the n×k matrix whose column j is the unit eigenvector for
// Values[j]. It returns ErrShape for k outside [0, n].
func (f *EigenLeading) Vectors(k int) (*Matrix, error) {
	if k < 0 || k > f.n {
		return nil, fmt.Errorf("%w: %d leading eigenvectors of %d", ErrShape, k, f.n)
	}
	return f.vectors(f.order[:k]), nil
}

// Vector returns the unit eigenvector for Values[j], bit for bit column j of
// any Vectors(k) with k > j: the columns are computed independently. It
// returns ErrShape for j outside [0, n).
func (f *EigenLeading) Vector(j int) ([]float64, error) {
	if j < 0 || j >= f.n {
		return nil, fmt.Errorf("%w: eigenvector %d of %d", ErrShape, j, f.n)
	}
	return f.vectors(f.order[j : j+1]).data, nil
}

// vectors returns the n×len(src) matrix whose column c is the eigenvector of
// the QL eigenvalue d[src[c]]: with SymEigen's accumulated V = Q·G₁⋯G_N, that
// is Q·G₁⋯G_N·e_src, so the log replays last rotation first on the unit
// vectors and the reflectors then apply first to last. The columns share
// every pass over the log and the reflectors but no arithmetic.
func (f *EigenLeading) vectors(src []int) *Matrix {
	n, k := f.n, len(src)
	w := NewMatrix(n, k)
	for c, s := range src {
		w.data[s*k+c] = 1
	}
	if k == 0 {
		return w
	}
	for si := len(f.sweeps) - 1; si >= 0; si-- {
		sw := f.sweeps[si]
		p := len(sw.cs)
		for i := sw.lo; i < sw.hi; i++ {
			p -= 2
			c, s := sw.cs[p], sw.cs[p+1]
			wi := w.data[i*k : (i+1)*k]
			wi1 := w.data[(i+1)*k : (i+2)*k]
			for x, lo := range wi {
				hi := wi1[x]
				wi[x] = c*lo + s*hi
				wi1[x] = c*hi - s*lo
			}
		}
	}
	g := make([]float64, k)
	for i := 1; i < n; i++ {
		h := f.h[i]
		if h == 0 {
			continue
		}
		u := f.refl[i*n : i*n+i]
		for c := range g {
			g[c] = 0
		}
		for r, ur := range u {
			for c, x := range w.data[r*k : (r+1)*k] {
				g[c] += ur * x
			}
		}
		for r, ur := range u {
			ur /= h
			row := w.data[r*k : (r+1)*k]
			for c := range row {
				row[c] -= g[c] * ur
			}
		}
	}
	return w
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
// QᵀAQ by n−2 Householder reflections (the reduction half of EISPACK tred2).
// On return e[1:] holds the subdiagonal, z's diagonal the diagonal, row i of
// z its first i entries the reflector u_i and d[i] its scale h_i = u_iᵀu_i/2
// (0 where the reflection was skipped), for i ≥ 1.
//
// tred2 is a column-major routine; keeping its layout in a row-major slice
// (z is the transpose of tred2's array) makes every O(n³) inner loop here,
// in accumulateReflections and in every plane rotation of SymEigen walk
// contiguous memory instead of striding by n.
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
}

// accumulateReflections is the other half of tred2: it multiplies the
// reflectors tridiagonalize left in z and d into Q, smallest block first, and
// leaves Q transposed in z (row j of z is column j of Q), the tridiagonal's
// diagonal in d and e[0] = 0.
func accumulateReflections(z []float64, n int, d, e []float64) {
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

// qlSweep is one implicit-QL sweep: it rotated the index pairs (i, i+1) for i
// from hi−1 down to lo, and cs holds each rotation's (c, s) in that order.
type qlSweep struct {
	lo, hi int
	cs     []float64
}

// rotateRows applies the sweep's rotations, first to last, to rows i and i+1
// of the n-column row-major z: exactly the update tql2 makes inline, so a z
// holding Qᵀ ends the QL iteration with the eigenvectors in its rows.
// Consecutive rotations share a row, so they go in pairs, one pass over rows
// i−1, i, i+1 each: every element sees the same operations in the same order
// as in two passes, a quarter fewer loads and stores.
func (sw qlSweep) rotateRows(z []float64, n int) {
	cs := sw.cs
	i := sw.hi - 1
	for ; i-1 >= sw.lo; i -= 2 {
		c1, s1, c2, s2 := cs[0], cs[1], cs[2], cs[3]
		cs = cs[4:]
		z0 := z[(i-1)*n : i*n]
		z1 := z[i*n : (i+1)*n]
		z2 := z[(i+1)*n : (i+2)*n]
		for k, lo := range z1 {
			hi := z2[k]
			z2[k] = s1*lo + c1*hi
			mid := c1*lo - s1*hi
			lo = z0[k]
			z1[k] = s2*lo + c2*mid
			z0[k] = c2*lo - s2*mid
		}
	}
	if i >= sw.lo {
		c, s := cs[0], cs[1]
		zi := z[i*n : (i+1)*n]
		zi1 := z[(i+1)*n : (i+2)*n]
		for k, lo := range zi {
			hi := zi1[k]
			zi1[k] = s*lo + c*hi
			zi[k] = c*lo - s*hi
		}
	}
}

// tridiagonalQL diagonalizes the tridiagonal matrix (d, e) from
// tridiagonalize by the implicit-shift QL iteration (EISPACK tql2). It records
// each sweep's plane rotations instead of applying them inline and hands the
// sweep to record, whose cs it reuses afterwards: d and e never read the
// vectors, so SymEigen can rotate Qᵀ with each sweep and SymEigenLeading keep
// the log for later. On return d holds the eigenvalues (unsorted).
func tridiagonalQL(d, e []float64, record func(qlSweep)) error {
	n := len(d)
	copy(e, e[1:])
	e[n-1] = 0

	cs := make([]float64, 0, 2*n)
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
			cs = cs[:0]
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
				cs = append(cs, c, s)
			}
			record(qlSweep{lo: l, hi: m, cs: cs})
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// descendingOrder returns the permutation that sorts d descending.
func descendingOrder(d []float64) []int {
	order := make([]int, len(d))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return d[order[a]] > d[order[b]] })
	return order
}

// finishEigen sorts the eigenpairs in descending eigenvalue order and
// packages the result. Row i of vt is the eigenvector of d[i]; the output
// holds eigenvectors as columns.
func finishEigen(d []float64, vt *Matrix) *EigenSym {
	n := len(d)
	values := make([]float64, n)
	vectors := NewMatrix(n, n)
	for j, src := range descendingOrder(d) {
		values[j] = d[src]
		for i, x := range vt.data[src*n : (src+1)*n] {
			vectors.data[i*n+j] = x
		}
	}
	return &EigenSym{Values: values, Vectors: vectors}
}
