package mat

import (
	"fmt"
	"math"
)

// maxJacobiSweeps bounds the Jacobi iteration. Convergence for symmetric
// matrices is quadratic; well-conditioned problems finish in a handful of
// sweeps and 64 is far beyond any realistic need.
const maxJacobiSweeps = 64

// SymEigenJacobi computes the same decomposition as SymEigen by a
// round-robin Jacobi method: each sweep visits every pivot pair once,
// organized into n−1 rounds of ⌊n/2⌋ mutually disjoint pairs. Within a round
// all rotation angles are computed from the round-start matrix, then applied
// in two phases — first to columns, then to rows — so the column phase can
// walk each matrix row once per round instead of once per rotation.
//
// It costs 6–10× SymEigen and exists for one property SymEigen does not
// have: a pivot that is exactly zero is skipped, so a block-diagonal input
// keeps eigenvectors supported on one block each, with exact zeros
// elsewhere. The Frequent Directions shrink and rebuild (2ℓ×2ℓ, microseconds)
// depend on that — see sketch.FD and core.Detector.RebuildFD; nothing else
// should call this.
//
// The matrix is not modified. Errors are SymEigen's, with ErrNoConverge
// meaning the off-diagonal mass did not vanish within the sweep budget.
func SymEigenJacobi(a *Matrix) (*EigenSym, error) {
	w, err := symmetrized(a)
	if err != nil {
		return nil, err
	}
	n := w.rows
	// vt accumulates the rotations transposed: row i is the eigenvector of
	// w's i-th diagonal entry.
	vt := Identity(n)
	finish := func() *EigenSym {
		d := make([]float64, n)
		for i := range d {
			d[i] = w.data[i*n+i]
		}
		return finishEigen(d, vt)
	}

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
		return finish(), nil
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
			return finish(), nil
		}
		// Reset the schedule each sweep so the pivot order is a pure
		// function of n.
		for i := range idx {
			idx[i] = i
		}
		for round := 0; round < slots-1; round++ {
			rots = planRound(w, idx, rots[:0])
			if len(rots) > 0 {
				// Phase 1: column rotations of W. The round's pairs
				// touch disjoint column pairs, so for a fixed row every
				// rotation updates disjoint entries — applying them
				// row-major touches each cache line once per round (the
				// pair-major order re-streamed every row n/16 times) and
				// the per-entry arithmetic is unchanged.
				for k := 0; k < n; k++ {
					rotateRowEntries(w.data[k*n:(k+1)*n], rots)
				}
				// Phase 2: row rotations of W, and V's column rotations as
				// row rotations of Vᵀ (disjoint row pairs per rotation; two
				// contiguous rows each — already streaming).
				for _, r := range rots {
					rotateRows(w, r)
					rotateRows(vt, r)
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
		return finish(), nil
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
