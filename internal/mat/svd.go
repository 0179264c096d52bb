package mat

import (
	"fmt"
	"math"
	"sort"
)

// SVD holds a thin singular value decomposition A = U·diag(Values)·Vᵀ.
// For an n×m input with n ≥ m, U is n×m with orthonormal columns, Values
// has length m sorted descending, and V is m×m orthogonal. Inputs with
// n < m are handled by decomposing the transpose and swapping U and V.
type SVD struct {
	// U has orthonormal columns (left singular vectors).
	U *Matrix
	// Values are the singular values, descending, all ≥ 0.
	Values []float64
	// V is orthogonal; its columns are the right singular vectors.
	V *Matrix
}

// maxHestenesSweeps bounds the one-sided Jacobi iteration.
const maxHestenesSweeps = 64

// ComputeSVD computes the thin SVD of a via the one-sided Jacobi (Hestenes)
// method: columns of a working copy are repeatedly rotated until they are
// mutually orthogonal; the column norms are the singular values and the
// accumulated rotations form V. The input is not modified.
func ComputeSVD(a *Matrix) (*SVD, error) {
	if !a.IsFinite() {
		return nil, fmt.Errorf("%w: svd input", ErrNotFinite)
	}
	if a.rows < a.cols {
		// Decompose Aᵀ = U'ΣV'ᵀ, then A = V'ΣU'ᵀ.
		st, err := ComputeSVD(a.T())
		if err != nil {
			return nil, err
		}
		return &SVD{U: st.V, Values: st.Values, V: st.U}, nil
	}
	n, m := a.rows, a.cols
	if m == 0 {
		return &SVD{U: NewMatrix(n, 0), Values: nil, V: NewMatrix(0, 0)}, nil
	}

	w := a.Clone()
	v := Identity(m)

	// Column dot products are recomputed per rotation; for the m ≤ a few
	// hundred regime this library targets, the simple formulation wins on
	// clarity and is fast enough.
	colDot := func(p, q int) float64 {
		var s float64
		for i := 0; i < n; i++ {
			s += w.data[i*m+p] * w.data[i*m+q]
		}
		return s
	}

	eps := 1e-15
	for sweep := 0; sweep < maxHestenesSweeps; sweep++ {
		rotated := false
		for p := 0; p < m-1; p++ {
			for q := p + 1; q < m; q++ {
				alpha := colDot(p, p)
				beta := colDot(q, q)
				gamma := colDot(p, q)
				if gamma == 0 {
					continue
				}
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) {
					continue
				}
				rotated = true
				// Rotation that orthogonalizes columns p and q
				// (Hestenes; Golub & Van Loan §8.6.3).
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for i := 0; i < n; i++ {
					wip := w.data[i*m+p]
					wiq := w.data[i*m+q]
					w.data[i*m+p] = c*wip - s*wiq
					w.data[i*m+q] = s*wip + c*wiq
				}
				applyRightRotation(v, p, q, c, s)
			}
		}
		if !rotated {
			return finishSVD(w, v), nil
		}
	}
	// Columns may have stopped improving at machine precision without the
	// no-rotation sweep firing; verify residual orthogonality before failing.
	var worst float64
	for p := 0; p < m-1; p++ {
		for q := p + 1; q < m; q++ {
			alpha := colDot(p, p)
			beta := colDot(q, q)
			gamma := colDot(p, q)
			if alpha > 0 && beta > 0 {
				r := math.Abs(gamma) / math.Sqrt(alpha*beta)
				if r > worst {
					worst = r
				}
			}
		}
	}
	if worst < 1e-10 {
		return finishSVD(w, v), nil
	}
	return nil, fmt.Errorf("%w: hestenes svd after %d sweeps", ErrNoConverge, maxHestenesSweeps)
}

// finishSVD extracts singular values as column norms of w, normalizes the
// columns into U and sorts the triplets by descending singular value.
func finishSVD(w, v *Matrix) *SVD {
	n, m := w.rows, w.cols
	type trip struct {
		sv  float64
		idx int
	}
	trips := make([]trip, m)
	for j := 0; j < m; j++ {
		var s float64
		for i := 0; i < n; i++ {
			x := w.data[i*m+j]
			s += x * x
		}
		trips[j] = trip{sv: math.Sqrt(s), idx: j}
	}
	sort.Slice(trips, func(a, b int) bool { return trips[a].sv > trips[b].sv })

	u := NewMatrix(n, m)
	vv := NewMatrix(m, m)
	values := make([]float64, m)
	for jOut, t := range trips {
		values[jOut] = t.sv
		inv := 0.0
		if t.sv > 0 {
			inv = 1 / t.sv
		}
		for i := 0; i < n; i++ {
			u.data[i*m+jOut] = w.data[i*m+t.idx] * inv
		}
		for i := 0; i < m; i++ {
			vv.data[i*m+jOut] = v.data[i*m+t.idx]
		}
	}
	return &SVD{U: u, Values: values, V: vv}
}
