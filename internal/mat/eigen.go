package mat

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// EigenSym holds the eigendecomposition A = V·diag(Values)·Vᵀ of a symmetric
// matrix. Values are sorted in descending order and Vectors' column j is the
// unit eigenvector for Values[j].
type EigenSym struct {
	// Values are the eigenvalues in descending order.
	Values []float64
	// Vectors is the n×n orthonormal matrix whose columns are eigenvectors.
	Vectors *Matrix

	// buf and idx are Factor's storage: Values and the QL iteration's
	// scratch (6n), the component lists and the sort order (3n).
	buf []float64
	idx []int
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
	e := new(EigenSym)
	if err := e.Factor(a.Clone()); err != nil {
		return nil, err
	}
	return e, nil
}

// Factor is SymEigen into e, for a caller that keeps e from solve to solve:
// it overwrites a with the working copy ½(A+Aᵀ) and then with scratch, and
// reuses e's storage, Values and Vectors included, whenever it is large
// enough, so a solve at a size e has seen allocates nothing. Values and
// Vectors are valid up to the next Factor. The errors are SymEigen's.
func (e *EigenSym) Factor(a *Matrix) error {
	if err := symmetrize(a); err != nil {
		return err
	}
	n := a.rows
	if len(e.buf) < 6*n {
		e.buf, e.idx = make([]float64, 6*n), make([]int, 3*n)
	}
	if e.Vectors == nil || e.Vectors.rows != n || e.Vectors.cols != n {
		e.Vectors = NewMatrix(n, n)
	}
	buf := e.buf
	var d, ds, es []float64
	for _, s := range []*[]float64{&e.Values, &d, &ds, &es} {
		*s, buf = buf[:n:n], buf[n:]
	}
	cs := buf[: 0 : 2*n]
	perm, ends, order := e.idx[:n], e.idx[n:2*n], e.idx[2*n:3*n]
	// A block's eigenpairs take the slots of its indices: d[idx[i]] is its
	// i-th eigenvalue, row idx[i] of a that eigenvector scattered to n. The
	// row's other entries lie in other blocks' columns, zero and read by no
	// later block, and are cleared. A diagonal matrix, n blocks of one, thus
	// reaches finish exactly as the whole-matrix path hands it over, and
	// sorts the same. A block solves in Vectors' storage, which finish
	// overwrites last.
	lo := 0
	for _, hi := range components(a, perm, ends, order) {
		idx := perm[lo:hi]
		lo = hi
		if len(idx) == n {
			if err := qlEigen(a, d, es, cs); err != nil {
				return err
			}
			break
		}
		k := len(idx)
		sub := Matrix{rows: k, cols: k, data: e.Vectors.data[:k*k]}
		for i, r := range idx {
			for j, c := range idx {
				sub.data[i*k+j] = a.data[r*n+c]
			}
		}
		if err := qlEigen(&sub, ds[:k], es[:k], cs[:0:2*k]); err != nil {
			return err
		}
		for i, r := range idx {
			d[r] = ds[i]
			row := a.data[r*n : (r+1)*n]
			clear(row)
			for j, c := range idx {
				row[c] = sub.data[i*k+j]
			}
		}
	}
	e.finish(d, a, order)
	return nil
}

// qlEigen runs tred2 + tql2 on the symmetric z in place, with d, e (length n)
// and cs (capacity 2n) for scratch. It leaves the eigenvalues, unsorted, in d
// and row i of z the eigenvector of d[i].
func qlEigen(z *Matrix, d, e, cs []float64) error {
	n := z.rows
	if n == 0 {
		return nil
	}
	tridiagonalize(z.data, n, d, e)
	accumulateReflections(z.data, n, d, e)
	if err := tridiagonalQL(d, e, cs, func(sw qlSweep) { sw.rotateRows(z.data, n) }); err != nil {
		return err
	}
	if !VecIsFinite(d) || !z.IsFinite() {
		return fmt.Errorf("%w: ql eigendecomposition overflowed", ErrNoConverge)
	}
	return nil
}

// components partitions the indices of the symmetric z into the connected
// components of its exact non-zero off-diagonal pattern, each in ascending
// order and ordered by smallest index: perm holds them one after another and
// the returned prefix of ends where each stops. seen (length n) is scratch.
// A dense matrix is one component.
func components(z *Matrix, perm, ends, seen []int) []int {
	n := z.rows
	clear(seen)
	ends, next := ends[:0], 0
	for s := range seen {
		if seen[s] != 0 {
			continue
		}
		seen[s] = 1
		lo := next
		perm[next], next = s, next+1
		for q := lo; q < next; q++ {
			for j, x := range z.data[perm[q]*n : (perm[q]+1)*n] {
				if x != 0 && seen[j] == 0 {
					seen[j] = 1
					perm[next], next = j, next+1
				}
			}
		}
		slices.Sort(perm[lo:next])
		ends = append(ends, next)
	}
	return ends
}

// EigenLeading is a two-phase symmetric eigendecomposition: every eigenvalue
// now, the eigenvectors only as many as asked for. It keeps the Householder
// reflectors and the tridiagonal T = QᵀAQ of its one solve, so Vectors(k)
// costs k inverse iterations on T, O(k·n) each, and the O(k·n²)
// back-transform through the reflectors, instead of the O(n³) of
// accumulating all n vectors. The value is a pure function of the input
// matrix, like SymEigen's.
type EigenLeading struct {
	// Values are all n eigenvalues in descending order, bit for bit the
	// Values SymEigen returns for the same irreducible matrix.
	Values []float64

	n int
	// refl holds reflector i in row i's first i entries (tred2's layout) and
	// T's diagonal on its own; h[i] is the reflector's uᵀu/2, 0 for a
	// reflection tridiagonalize skipped.
	refl []float64
	h    []float64
	// off[i] couples rows i−1 and i of T, off[0] = off[n] = 0. T splits into
	// unreduced blocks at the exact zeros of off, and blk[j] is the first row
	// of the block Values[j] is an eigenvalue of. norm is ‖T‖₁, and scale
	// the power of two 2^−⌊log₂ norm⌋ the inverse iteration multiplies T by.
	off   []float64
	blk   []int
	norm  float64
	scale float64
	// Scratch, all carved from buf: QL's d, e and rotations cs; the iterate
	// x, two entries longer than n; the rows of U in T − λI = P·L·U (diagonal
	// u0, superdiagonals u1, u2); the back-transform's dot products g.
	buf, d, e, x, u0, u1, u2, g, cs []float64
	// tv holds the eigenvectors of T found since Factor, column-major.
	tv []float64
}

// SymEigenLeading factors a copy of the symmetric matrix a (see Factor); a
// is not modified.
func SymEigenLeading(a *Matrix) (*EigenLeading, error) {
	z := a.Clone()
	if err := symmetrize(z); err != nil {
		return nil, err
	}
	f := new(EigenLeading)
	if err := f.Factor(z); err != nil {
		return nil, err
	}
	return f, nil
}

// Factor factors the symmetric matrix a in place for its eigenvalues and
// leading eigenvectors: Householder reduction without accumulating Q, then
// the QL iteration on the tridiagonal for values only. Values are available
// at once and, for an irreducible matrix (one component, see SymEigen),
// bitwise equal to SymEigen's; a reducible one is not split here, so they
// agree to rounding error. Its one caller, the randproj model build, factors
// a dense Gram of either side of the sketch matrix, the l×l ẐẐᵀ or the m×m
// ẐᵀẐ, into one EigenLeading per detector.
//
// a must be exactly symmetric, as Gram's output is: unlike SymEigenLeading's
// copy, it is not averaged with its transpose. Factor overwrites a and reads
// it again in Vectors and Vector, up to the next Factor, which reuses f's
// storage (Values included) whenever it is large enough. It returns ErrShape
// for non-square input and ErrNoConverge if an eigenvalue does not settle or
// the solve overflows, NaN and Inf entries included (SymEigenLeading reports
// those as ErrNotFinite); Vectors reports ErrNoConverge only if an inverse
// iteration does not settle.
func (f *EigenLeading) Factor(a *Matrix) error {
	n := a.rows
	if n != a.cols {
		return fmt.Errorf("%w: eigendecomposition of %dx%d", ErrShape, a.rows, a.cols)
	}
	if len(f.buf) < 12*n+3 {
		f.blk, f.buf = make([]int, n), make([]float64, 12*n+3)
	}
	buf := f.buf
	for _, s := range []*[]float64{&f.Values, &f.h, &f.d, &f.e, &f.u0, &f.u1, &f.u2, &f.g} {
		*s, buf = buf[:n:n], buf[n:]
	}
	f.n, f.refl, f.blk, f.tv, f.norm = n, a.data, f.blk[:n], f.tv[:0], 0
	f.off, f.x, f.cs = buf[:n+1], buf[n+1:2*n+3], buf[2*n+3:2*n+3:4*n+3]
	if n == 0 {
		return nil
	}
	tridiagonalize(a.data, n, f.h, f.e)
	f.e[0], f.off[n] = 0, 0
	copy(f.off, f.e)
	for i := range f.d {
		f.d[i] = a.data[i*n+i]
		f.norm = math.Max(f.norm, math.Abs(f.d[i])+math.Abs(f.off[i])+math.Abs(f.off[i+1]))
		f.u0[i] = float64(i)
		if f.off[i] != 0 {
			f.u0[i] = f.u0[i-1]
		}
	}
	f.scale = 1
	if f.norm > 0 {
		f.scale = math.Ldexp(1, -math.Ilogb(f.norm))
	}
	if err := tridiagonalQL(f.d, f.e, f.cs, func(qlSweep) {}); err != nil {
		return err
	}
	if !VecIsFinite(f.d) || !a.IsFinite() {
		return fmt.Errorf("%w: ql eigendecomposition overflowed", ErrNoConverge)
	}
	// QL never rotates across an exact zero of off, so d[i] is an eigenvalue
	// of the block holding row i, which starts at row u0[i].
	descendingOrder(f.blk, f.d)
	for j, src := range f.blk {
		f.Values[j], f.blk[j] = f.d[src], int(f.u0[src])
	}
	return nil
}

// Vectors returns the n×k matrix whose column j is the unit eigenvector for
// Values[j]. It returns ErrShape for k outside [0, n].
func (f *EigenLeading) Vectors(k int) (*Matrix, error) {
	if k < 0 || k > f.n {
		return nil, fmt.Errorf("%w: %d leading eigenvectors of %d", ErrShape, k, f.n)
	}
	w := NewMatrix(f.n, k)
	return w, f.vectors(w.data, 0, k)
}

// VectorsInto is Vectors(dst.Cols()) into the caller's n×k dst.
func (f *EigenLeading) VectorsInto(dst *Matrix) error {
	if dst.rows != f.n || dst.cols > f.n {
		return fmt.Errorf("%w: %d leading eigenvectors of %d into %dx%d", ErrShape, dst.cols, f.n, dst.rows, dst.cols)
	}
	return f.vectors(dst.data, 0, dst.cols)
}

// Vector returns the unit eigenvector for Values[j], bit for bit column j of
// any Vectors(k) with k > j: a column depends only on the columns before it
// (see vectors), which Vector finds too but does not back-transform. It
// returns ErrShape for j outside [0, n).
func (f *EigenLeading) Vector(j int) ([]float64, error) {
	if j < 0 || j >= f.n {
		return nil, fmt.Errorf("%w: eigenvector %d of %d", ErrShape, j, f.n)
	}
	v := make([]float64, f.n)
	if err := f.vectors(v, j, j+1); err != nil {
		return nil, err
	}
	return v, nil
}

// vectors writes the eigenvectors for Values[from:k] into the n×(k−from)
// row-major w. It finds the eigenvectors of T for Values[:k] that tv does
// not hold yet, in order, and keeps them there; each comes from inverse
// iteration on its block of T·2^−⌊log₂‖T‖₁⌋ under LAPACK dstein's rules (a
// block of one is a unit vector). The growth test below is an absolute bound,
// which no step meets on a matrix much smaller than 1; the power-of-two scale
// is exact, so every power-of-two multiple of a matrix gets its vectors bit
// for bit. The rules:
//   - a shift within 10·ε·|λ| of the one before it in the block is moved that
//     far below it, so that equal eigenvalues get distinct shifts;
//   - the start vector is pseudo-random, seeded by the column;
//   - each step scales the iterate b to n·‖T‖₁·max(ε, |u_nn|) in the max norm,
//     solves (T − λI)x = b (see solveShifted) and orthogonalizes x by modified
//     Gram–Schmidt;
//   - a step counts once ‖x‖∞ reaches √(0.1/n); the iteration fails with
//     ErrNoConverge after nine steps and leaves x unit, its largest entry
//     positive.
//
// Two departures from dstein, each found by FuzzSymEigenLeading:
//   - dstein orthogonalizes only within clusters, chains of eigenvalues less
//     than 10⁻³·‖T‖₁ apart, which leaves vectors of different clusters
//     orthogonal only to ε·‖T‖₁/gap (46·ε between two leading vectors of a
//     20×20 Gram-like spectrum; 1.2 times TestSymEigenLeadingClusters'
//     4·n·ε bound at n = 16 even with the step below). Here the Gram–Schmidt
//     runs against every earlier vector of the block, at O(k²·n); another
//     block's vectors are zero on this one.
//   - dstein stops at the third counted step. Here four count, and a fifth
//     solves with the shift raised by 10⁻⁸·‖T‖₁. Near a cluster narrower
//     than rounding, T − λI is singular to working precision for several of
//     its eigenvalues at once, so each member's solve returns much the same
//     direction, the Gram–Schmidt cancels most of it, and what is left leaks
//     out of the cluster by up to 10⁻¹¹ (residuals up to 6 times the
//     bound). The raised shift amplifies every member alike and damps the
//     leak by 10⁻⁸·‖T‖₁/gap.
//
// So column c depends on the columns before it and on nothing else, and is
// found once per Factor, in order, whatever the calls asked for. The
// reflectors then take w's columns to A's coordinates, first to last; the
// columns share every pass over them but no arithmetic.
func (f *EigenLeading) vectors(w []float64, from, k int) error {
	n := f.n
	for len(f.tv) < k*n {
		c := len(f.tv) / n
		lo, hi, lam := f.blk[c], f.blk[c]+1, math.Inf(1)
		for hi < n && f.off[hi] != 0 {
			hi++
		}
		for i := 0; i <= c; i++ {
			if f.blk[i] == lo {
				lam = min(f.Values[i], lam-10*0x1p-52*math.Abs(f.Values[i]))
			}
		}
		x, seed := f.x[lo:hi], uint64(c)*0x9e3779b97f4a7c15
		for i := range x {
			seed += 0x9e3779b97f4a7c15
			z := (seed ^ seed>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			x[i] = float64((z^z>>31)>>11)*0x1p-52 - 1
		}
		for its, grown := 0, 0; len(x) > 1 && grown < 5; its++ {
			if its == 9 {
				return fmt.Errorf("%w: inverse iteration for eigenvector %d of %d", ErrNoConverge, c, n)
			}
			f.solveShifted(x, lo, (lam+float64(grown/4)*1e-8*f.norm)*f.scale)
			for p := 0; p < c; p++ {
				prev := f.tv[p*n+lo : p*n+hi]
				AddScaled(x, -Dot(x, prev), prev)
			}
			if math.Abs(x[iamax(x)]) >= math.Sqrt(0.1/float64(len(x))) {
				grown++
			}
		}
		norm := math.Copysign(Norm(x), x[iamax(x)])
		f.tv = slices.Grow(f.tv, n)[:(c+1)*n]
		clear(f.tv[c*n:])
		for i, v := range x {
			f.tv[c*n+lo+i] = v / norm
		}
	}
	k -= from
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			w[i*k+c] = f.tv[(from+c)*n+i]
		}
	}
	g := f.g[:k]
	for i := 1; i < n; i++ {
		h := f.h[i]
		if h == 0 {
			continue
		}
		u := f.refl[i*n : i*n+i]
		clear(g)
		for r, ur := range u {
			for c, v := range w[r*k : (r+1)*k] {
				g[c] += ur * v
			}
		}
		for r, ur := range u {
			ur /= h
			row := w[r*k : (r+1)*k]
			for c := range row {
				row[c] -= g[c] * ur
			}
		}
	}
	return nil
}

// solveShifted overwrites the iterate x on the block from row lo of the
// scaled T' = T·f.scale with (T' − λI)⁻¹·s·x: Gaussian elimination with
// partial pivoting on magnitude (LAPACK dlagtf), s scaling L⁻¹P·x by
// dstein's n·‖T'‖₁·max(ε, |u_nn|)/‖x‖∞, and back substitution that takes a
// pivot below ε·‖T'‖₁ as ±ε·‖T'‖₁ (LAPACK dlagts).
func (f *EigenLeading) solveShifted(x []float64, lo int, lam float64) {
	const eps = 0x1p-52
	b, n, off, u0, u1, u2 := len(x), f.n, f.off[lo:], f.u0[lo:], f.u1[lo:], f.u2[lo:]
	sc, norm := f.scale, f.norm*f.scale
	scale := float64(b) * norm / math.Abs(x[iamax(x)])
	x = f.x[lo:]
	x[b], x[b+1] = 0, 0
	p0, p1 := f.refl[lo*n+lo]*sc-lam, off[1]*sc
	for i := 0; i+1 < b; i++ {
		sub, q0, q1 := off[i+1]*sc, f.refl[(lo+i+1)*(n+1)]*sc-lam, off[i+2]*sc
		if math.Abs(sub) <= math.Abs(p0) {
			m := sub / p0
			u0[i], u1[i], u2[i] = p0, p1, 0
			p0, p1, x[i+1] = q0-m*p1, q1, x[i+1]-m*x[i]
		} else {
			m := p0 / sub
			u0[i], u1[i], u2[i] = sub, q0, q1
			p0, p1, x[i], x[i+1] = p1-m*q0, -m*q1, x[i+1], x[i]-m*x[i+1]
		}
	}
	u0[b-1], u1[b-1], u2[b-1] = p0, 0, 0
	ScaleVec(x[:b], scale*math.Max(eps, math.Abs(p0)))
	for i := b - 1; i >= 0; i-- {
		t, p := x[i]-(u1[i]*x[i+1]+u2[i]*x[i+2]), u0[i]
		if math.Abs(p) < eps*norm {
			p = math.Copysign(eps*norm, p)
		}
		x[i] = t / p
	}
}

// iamax returns the first index of the largest |x_i| (BLAS idamax).
func iamax(x []float64) int {
	best := 0
	for i, v := range x {
		if math.Abs(v) > math.Abs(x[best]) {
			best = i
		}
	}
	return best
}

// symmetrize validates an eigensolver's input and overwrites it with the
// working copy ½(A+Aᵀ), which averages out slight asymmetries from
// floating-point accumulation.
func symmetrize(a *Matrix) error {
	n := a.rows
	if n != a.cols {
		return fmt.Errorf("%w: eigendecomposition of %dx%d", ErrShape, a.rows, a.cols)
	}
	if !a.IsFinite() {
		return fmt.Errorf("%w: eigendecomposition input", ErrNotFinite)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := 0.5 * (a.data[i*n+j] + a.data[j*n+i])
			a.data[i*n+j], a.data[j*n+i] = v, v
		}
	}
	return nil
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
		// Row j adds zj[k]·d[j] into e[k] for k > j, then e[j] becomes
		// e[j] + Σ_{k≥j} zj[k]·d[k], summed in k order. Rows go four at a
		// time: their scatters in row order, then their four sums side by
		// side, each in its own k order, so every e[j] keeps its bits.
		du := d[:i]
		copy(z[i*n:], du)
		j := 0
		for ; j+4 <= i; j += 4 {
			z0, z1, z2, z3 := z[j*n:][:i], z[(j+1)*n:][:i], z[(j+2)*n:][:i], z[(j+3)*n:][:i]
			d0, d1, d2, d3 := du[j], du[j+1], du[j+2], du[j+3]
			addMul(e[j+1:i], z0[j+1:], d0)
			addMul(e[j+2:i], z1[j+2:], d1)
			addMul(e[j+3:i], z2[j+3:], d2)
			addMul(e[j+4:i], z3[j+4:], d3)
			g0 := e[j] + z0[j]*d0 + z0[j+1]*d1 + z0[j+2]*d2 + z0[j+3]*d3
			g1 := e[j+1] + z1[j+1]*d1 + z1[j+2]*d2 + z1[j+3]*d3
			g2 := e[j+2] + z2[j+2]*d2 + z2[j+3]*d3
			g3 := e[j+3] + z3[j+3]*d3
			for k := j + 4; k < i; k++ {
				dk := du[k]
				g0 += z0[k] * dk
				g1 += z1[k] * dk
				g2 += z2[k] * dk
				g3 += z3[k] * dk
			}
			e[j], e[j+1], e[j+2], e[j+3] = g0, g1, g2, g3
		}
		for ; j < i; j++ {
			zj := z[j*n:][:i]
			g = e[j] + zj[j]*du[j]
			for k := j + 1; k < i; k++ {
				g += zj[k] * du[k]
			}
			addMul(e[j+1:i], zj[j+1:], du[j])
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
			subMul2(zj[j:], e[j:i], d[j:i], f, g)
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
// sweep to record, reusing cs (capacity 2n) for each sweep: d and e never
// read the vectors, so SymEigen rotates Qᵀ with each sweep and Factor, whose
// record does nothing, runs the same recurrence for values only. On return d
// holds the eigenvalues (unsorted).
func tridiagonalQL(d, e, cs []float64, record func(qlSweep)) error {
	n := len(d)
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

// descendingOrder fills order with the permutation that sorts d descending.
func descendingOrder(order []int, d []float64) {
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(d[b], d[a]) })
}

// finish sorts the eigenpairs in descending eigenvalue order into Values and
// Vectors, whose column j is the eigenvector; row i of vt is the eigenvector
// of d[i]. order (length n) is scratch.
func (e *EigenSym) finish(d []float64, vt *Matrix, order []int) {
	n := len(d)
	descendingOrder(order, d)
	for j, src := range order {
		e.Values[j] = d[src]
		for i, x := range vt.data[src*n : (src+1)*n] {
			e.Vectors.data[i*n+j] = x
		}
	}
}
