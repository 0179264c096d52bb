package anomography

import (
	"fmt"
	"math"
	"sort"

	"streampca/internal/mat"
)

// PCPConfig tunes the relaxed Principal Component Pursuit decomposition.
type PCPConfig struct {
	// Lambda weights the sparse term (0 → 1/√max(n,m), the standard PCP
	// choice that recovers sparse corruptions of a low-rank matrix).
	Lambda float64
	// Tol is the convergence bound on ‖D−L−S‖_F/‖D‖_F (0 → 1e-6).
	Tol float64
	// MaxIter bounds the ALM iterations (0 → 100).
	MaxIter int
}

// PCPResult is a low-rank + sparse decomposition D ≈ L + S.
type PCPResult struct {
	// L is the low-rank (normal traffic) part, S the sparse (anomaly) part;
	// both have D's shape.
	L, S *mat.Matrix
	// RankL is the rank of L at the final iteration.
	RankL int
	// Iterations is the number of ALM iterations run.
	Iterations int
	// Converged reports whether RelResidual reached Tol within MaxIter.
	Converged bool
	// RelResidual is the final ‖D−L−S‖_F/‖D‖_F.
	RelResidual float64
}

// PCP decomposes the traffic-matrix window d (rows = intervals, columns =
// flows) into low-rank + sparse via the inexact augmented Lagrange
// multiplier method for relaxed Principal Component Pursuit (Wang et al.,
// arXiv:1104.2156; the IALM scheme of Lin, Chen & Ma). Each iteration
// soft-thresholds the singular values of D − S + Y/μ and then the entries
// of D − L + Y/μ. The singular-value step runs on the small side — Gram,
// SymEigen and two Muls, never an n×n factor. It is an offline comparator
// for the online pursuit, not a streaming component.
func PCP(d *mat.Matrix, cfg PCPConfig) (*PCPResult, error) {
	if d == nil || d.Rows() == 0 || d.Cols() == 0 {
		return nil, fmt.Errorf("%w: empty pcp input", ErrInput)
	}
	if !d.IsFinite() {
		return nil, fmt.Errorf("%w: non-finite pcp input", ErrInput)
	}
	// The SVT step eigensolves the c×c Gram; run on the transpose when the
	// matrix is wider than tall so the small side pays for it.
	if d.Cols() > d.Rows() {
		res, err := PCP(d.T(), cfg)
		if err != nil {
			return nil, err
		}
		res.L, res.S = res.L.T(), res.S.T()
		return res, nil
	}
	n, m := d.Rows(), d.Cols()
	lambda := cfg.Lambda
	if lambda <= 0 {
		lambda = 1 / math.Sqrt(float64(n))
	}
	tol := cfg.Tol
	if tol <= 0 {
		tol = 1e-6
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 100
	}

	dNorm := d.FrobeniusNorm()
	if dNorm == 0 {
		return &PCPResult{L: mat.NewMatrix(n, m), S: mat.NewMatrix(n, m), Converged: true}, nil
	}
	spec, err := spectralNorm(d)
	if err != nil {
		return nil, err
	}
	maxAbs := d.MaxAbs()

	// Y₀ = D/J(D) with J(D) = max(‖D‖₂, ‖D‖_∞/λ) keeps the dual feasible
	// from the start (Lin et al. §4).
	j := spec
	if v := maxAbs / lambda; v > j {
		j = v
	}
	if j == 0 {
		j = 1
	}
	y := d.Clone().Scale(1 / j)
	mu := 1.25 / spec
	if spec == 0 {
		mu = 1.25
	}
	muMax := mu * 1e7
	const rho = 1.5

	l := mat.NewMatrix(n, m)
	s := mat.NewMatrix(n, m)
	work := mat.NewMatrix(n, m)
	res := &PCPResult{}
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		// L = SVT_{1/μ}(D − S + Y/μ)
		for i := 0; i < n; i++ {
			dr, sr, yr, wr := d.RowView(i), s.RowView(i), y.RowView(i), work.RowView(i)
			for jj := range wr {
				wr[jj] = dr[jj] - sr[jj] + yr[jj]/mu
			}
		}
		l, res.RankL, err = svt(work, 1/mu)
		if err != nil {
			return nil, err
		}
		// S = shrink_{λ/μ}(D − L + Y/μ)
		thr := lambda / mu
		for i := 0; i < n; i++ {
			dr, lr, yr, sr := d.RowView(i), l.RowView(i), y.RowView(i), s.RowView(i)
			for jj := range sr {
				sr[jj] = shrink(dr[jj]-lr[jj]+yr[jj]/mu, thr)
			}
		}
		// Y += μ(D − L − S); converged when the primal residual is tiny.
		var z2 float64
		for i := 0; i < n; i++ {
			dr, lr, sr, yr := d.RowView(i), l.RowView(i), s.RowView(i), y.RowView(i)
			for jj := range yr {
				z := dr[jj] - lr[jj] - sr[jj]
				z2 += z * z
				yr[jj] += mu * z
			}
		}
		res.RelResidual = math.Sqrt(z2) / dNorm
		if res.RelResidual < tol {
			res.Converged = true
			break
		}
		if mu = rho * mu; mu > muMax {
			mu = muMax
		}
	}
	res.L, res.S = l, s
	return res, nil
}

// svt soft-thresholds the singular values of a (n×m, n ≥ m) at tau via the
// Gram route: G = AᵀA = VΣ²Vᵀ, so A = (AV)Σ⁻¹·Σ·Vᵀ and
// SVT_τ(A) = A·V·diag((σ−τ)₊/σ)·Vᵀ — one Gram, one symmetric eigensolve
// and two Muls, never forming U explicitly.
func svt(a *mat.Matrix, tau float64) (*mat.Matrix, int, error) {
	eig, err := mat.SymEigen(a.Gram())
	if err != nil {
		return nil, 0, err
	}
	m := a.Cols()
	kept := 0
	w := make([]float64, m)
	for j := 0; j < m; j++ {
		lam := eig.Values[j]
		if lam <= 0 {
			continue
		}
		sigma := math.Sqrt(lam)
		if sigma > tau {
			w[j] = (sigma - tau) / sigma
			kept++
		}
	}
	if kept == 0 {
		return mat.NewMatrix(a.Rows(), m), 0, nil
	}
	// W = V·diag(w)·Vᵀ via a scaled copy of V, then L = A·W.
	vw := eig.Vectors.Clone()
	for i := 0; i < m; i++ {
		row := vw.RowView(i)
		for j := 0; j < m; j++ {
			row[j] *= w[j]
		}
	}
	wm, err := vw.Mul(eig.Vectors.T())
	if err != nil {
		return nil, 0, err
	}
	l, err := a.Mul(wm)
	if err != nil {
		return nil, 0, err
	}
	return l, kept, nil
}

// shrink is the scalar soft-threshold sign(v)·max(|v|−t, 0).
func shrink(v, t float64) float64 {
	switch {
	case v > t:
		return v - t
	case v < -t:
		return v + t
	default:
		return 0
	}
}

// spectralNorm estimates ‖a‖₂ by power iteration on the Gram matrix with a
// fixed all-ones start, so the estimate is deterministic.
func spectralNorm(a *mat.Matrix) (float64, error) {
	g := a.Gram()
	v := make([]float64, g.Cols())
	for i := range v {
		v[i] = 1
	}
	mat.Normalize(v)
	var lam float64
	for it := 0; it < 60; it++ {
		next, err := g.MulVec(v)
		if err != nil {
			return 0, err
		}
		nl := mat.Norm(next)
		if nl == 0 {
			return 0, nil
		}
		mat.ScaleVec(next, 1/nl)
		if math.Abs(nl-lam) <= 1e-12*nl && it > 2 {
			lam = nl
			break
		}
		lam = nl
		v = next
	}
	return math.Sqrt(lam), nil
}

// RowCulprits ranks the flows of one sparse-part row by |S[row,j]|
// descending and returns those exceeding minAbs, at most k of them — the
// PCP comparator's answer to "which flows caused interval row's anomaly".
func RowCulprits(s *mat.Matrix, row, k int, minAbs float64) []int {
	if s == nil || row < 0 || row >= s.Rows() {
		return nil
	}
	type fc struct {
		flow int
		abs  float64
	}
	var out []fc
	for j, v := range s.RowView(row) {
		if a := math.Abs(v); a > minAbs {
			out = append(out, fc{j, a})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].abs > out[b].abs })
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	flows := make([]int, len(out))
	for i, f := range out {
		flows[i] = f.flow
	}
	return flows
}
