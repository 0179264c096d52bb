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

// maxJacobiSweeps bounds the Jacobi iteration. Convergence for symmetric
// matrices is quadratic; well-conditioned problems finish in a handful of
// sweeps and 64 is far beyond any realistic need.
const maxJacobiSweeps = 64

// SymEigen computes the eigendecomposition of the symmetric matrix a using a
// round-robin Jacobi method: each sweep visits every pivot pair once,
// organized into n−1 rounds of ⌊n/2⌋ mutually disjoint pairs. Within a round
// all rotation angles are computed from the round-start matrix, then applied
// in two phases — first to columns, then to rows — so the column phase can
// walk each matrix row once per round instead of once per rotation.
//
// Only the upper triangle is read; the matrix is not modified. It returns
// ErrShape for non-square input, ErrNotFinite for NaN/Inf entries and
// ErrNoConverge if the off-diagonal mass does not vanish within the sweep
// budget.
func SymEigen(a *Matrix) (*EigenSym, error) {
	n := a.rows
	if n != a.cols {
		return nil, fmt.Errorf("%w: eigendecomposition of %dx%d", ErrShape, a.rows, a.cols)
	}
	if !a.IsFinite() {
		return nil, fmt.Errorf("%w: eigendecomposition input", ErrNotFinite)
	}
	if n == 0 {
		return &EigenSym{Values: nil, Vectors: NewMatrix(0, 0)}, nil
	}

	// Work on a symmetrized copy so the caller's matrix stays intact and
	// slight asymmetries from floating-point accumulation are averaged out.
	w := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w.data[i*n+j] = 0.5 * (a.data[i*n+j] + a.data[j*n+i])
		}
	}
	v := Identity(n)

	offDiag := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				x := w.data[i*n+j]
				s += x * x
			}
		}
		return s
	}

	normA := w.FrobeniusNorm()
	if normA == 0 {
		return finishEigen(w, v), nil
	}
	tol := 1e-28 * normA * normA

	// Round-robin tournament schedule. slots is n rounded up to even; the
	// extra slot (index ≥ n) is a bye. Position 0 is fixed, the rest rotate.
	slots := n
	if slots%2 == 1 {
		slots++
	}
	idx := make([]int, slots)
	rots := make([]rotation, 0, slots/2)

	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		if offDiag() <= tol {
			return finishEigen(w, v), nil
		}
		// Reset the schedule each sweep so the pivot order is a pure
		// function of n.
		for i := range idx {
			idx[i] = i
		}
		for round := 0; round < slots-1; round++ {
			rots = planRound(w, idx, rots[:0])
			if len(rots) > 0 {
				// Phase 1: column rotations of W and V. The round's pairs
				// touch disjoint column pairs, so for a fixed row every
				// rotation updates disjoint entries — applying them
				// row-major touches each cache line once per round (the
				// pair-major order re-streamed every row n/16 times) and
				// the per-entry arithmetic is unchanged.
				for k := 0; k < n; k++ {
					rotateRowEntries(w.data[k*n:(k+1)*n], rots)
				}
				for k := 0; k < n; k++ {
					rotateRowEntries(v.data[k*n:(k+1)*n], rots)
				}
				// Phase 2: row rotations of W (disjoint row pairs per
				// rotation; two contiguous rows each — already streaming).
				for _, r := range rots {
					rotateRows(w, r)
				}
				// The pivot entries are annihilated analytically; zero them
				// exactly rather than keeping rounding residue.
				for _, r := range rots {
					w.data[r.p*n+r.q] = 0
					w.data[r.q*n+r.p] = 0
				}
			}
			advanceRoundRobin(idx)
		}
	}
	if offDiag() <= tol*1e4 {
		// Accept a slightly looser residual rather than fail outright;
		// Jacobi stagnation this close to convergence is a rounding artifact.
		return finishEigen(w, v), nil
	}
	return nil, fmt.Errorf("%w: jacobi eigendecomposition after %d sweeps", ErrNoConverge, maxJacobiSweeps)
}

// rotation is one planned Jacobi rotation on the (disjoint) pair p < q.
type rotation struct {
	p, q int
	c, s float64
}

// planRound computes the rotation angles for the current round's disjoint
// pairs from the round-start matrix, appending to dst. Pairs whose pivot is
// negligible at machine precision are zeroed in place and skipped.
func planRound(w *Matrix, idx []int, dst []rotation) []rotation {
	n := w.cols
	slots := len(idx)
	for i := 0; i < slots/2; i++ {
		p, q := idx[i], idx[slots-1-i]
		if p >= n || q >= n {
			continue // bye slot on odd n
		}
		if p > q {
			p, q = q, p
		}
		apq := w.data[p*n+q]
		if apq == 0 {
			continue
		}
		app := w.data[p*n+p]
		aqq := w.data[q*n+q]
		// Skip rotations that cannot change the result at machine precision.
		if math.Abs(apq) <= 1e-17*(math.Abs(app)+math.Abs(aqq)) {
			w.data[p*n+q] = 0
			w.data[q*n+p] = 0
			continue
		}
		c, s := jacobiRotation(app, aqq, apq)
		dst = append(dst, rotation{p: p, q: q, c: c, s: s})
	}
	return dst
}

// advanceRoundRobin rotates the schedule one step: position 0 stays fixed,
// the remaining entries shift cyclically (the classic tournament scheme that
// pairs every index with every other exactly once per n−1 rounds).
func advanceRoundRobin(idx []int) {
	last := idx[len(idx)-1]
	copy(idx[2:], idx[1:len(idx)-1])
	idx[1] = last
}

// jacobiRotation returns (cos θ, sin θ) of the Givens rotation that
// annihilates the (p,q) element of a symmetric 2×2 block
// [[app apq],[apq aqq]], following Golub & Van Loan (8.4).
func jacobiRotation(app, aqq, apq float64) (c, s float64) {
	theta := (aqq - app) / (2 * apq)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c = 1 / math.Sqrt(1+t*t)
	s = t * c
	return c, s
}

// rotateRowEntries applies every rotation of a round to one matrix row:
// entry-wise this is exactly M ← M·J for each disjoint column pair J, in a
// row-major order that streams the matrix once per round.
func rotateRowEntries(row []float64, rots []rotation) {
	for _, r := range rots {
		mp, mq := row[r.p], row[r.q]
		row[r.p] = r.c*mp - r.s*mq
		row[r.q] = r.s*mp + r.c*mq
	}
}

// rotateRows applies M ← Jᵀ·M in place, where Jᵀ mixes rows p and q.
func rotateRows(m *Matrix, r rotation) {
	n := m.cols
	prow := m.data[r.p*n : r.p*n+n]
	qrow := m.data[r.q*n : r.q*n+n]
	for k := 0; k < n; k++ {
		mp, mq := prow[k], qrow[k]
		prow[k] = r.c*mp - r.s*mq
		qrow[k] = r.s*mp + r.c*mq
	}
}

// applyRightRotation applies V ← V·J where J rotates columns p and q (shared
// with the one-sided Jacobi SVD).
func applyRightRotation(v *Matrix, p, q int, c, s float64) {
	n := v.cols
	for k := 0; k < v.rows; k++ {
		vkp := v.data[k*n+p]
		vkq := v.data[k*n+q]
		v.data[k*n+p] = c*vkp - s*vkq
		v.data[k*n+q] = s*vkp + c*vkq
	}
}

// finishEigen extracts the diagonal, sorts eigenpairs in descending
// eigenvalue order and packages the result.
func finishEigen(w, v *Matrix) *EigenSym {
	n := w.rows
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{val: w.data[i*n+i], idx: i}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].val > pairs[b].val })

	values := make([]float64, n)
	vectors := NewMatrix(n, n)
	for j, p := range pairs {
		values[j] = p.val
		for i := 0; i < n; i++ {
			vectors.data[i*n+j] = v.data[i*n+p.idx]
		}
	}
	return &EigenSym{Values: values, Vectors: vectors}
}
