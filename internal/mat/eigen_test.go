package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// eigenSolvers are the two implementations of one contract: the
// Householder + QL solver every caller but Frequent Directions gets, and the
// Jacobi kernel FD keeps. Contract tests run over both.
var eigenSolvers = []struct {
	name  string
	solve func(*Matrix) (*EigenSym, error)
}{
	{"ql", SymEigen},
	{"jacobi", SymEigenJacobi},
}

// checkOrthonormalColumns verifies QᵀQ ≈ I.
func checkOrthonormalColumns(t *testing.T, q *Matrix, tol float64) {
	t.Helper()
	prod, err := q.T().Mul(q)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Equal(Identity(q.Cols()), tol) {
		t.Fatalf("columns not orthonormal: QᵀQ deviates by up to %v", func() float64 {
			d, _ := prod.Sub(Identity(q.Cols()))
			return d.MaxAbs()
		}())
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2 1],[1 2]] has eigenvalues 3 and 1.
	a, _ := NewMatrixFromRows([][]float64{{2, 1}, {1, 2}})
	for _, s := range eigenSolvers {
		eig, err := s.solve(a)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(eig.Values[0], 3, 1e-12) || !almostEqual(eig.Values[1], 1, 1e-12) {
			t.Fatalf("%s: eigenvalues = %v, want [3 1]", s.name, eig.Values)
		}
		checkOrthonormalColumns(t, eig.Vectors, 1e-12)
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{5, 0, 0}, {0, -1, 0}, {0, 0, 2}})
	want := []float64{5, 2, -1}
	for _, s := range eigenSolvers {
		eig, err := s.solve(a)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if !almostEqual(eig.Values[i], w, 1e-12) {
				t.Fatalf("%s: values = %v, want %v", s.name, eig.Values, want)
			}
		}
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 3, 5, 10, 25} {
		a := randomSymmetric(rng, n)
		eig, err := SymEigen(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkOrthonormalColumns(t, eig.Vectors, 1e-9)
		// Rebuild VΛVᵀ.
		lam := NewMatrix(n, n)
		for i, v := range eig.Values {
			lam.Set(i, i, v)
		}
		vl, err := eig.Vectors.Mul(lam)
		if err != nil {
			t.Fatal(err)
		}
		back, err := vl.Mul(eig.Vectors.T())
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(a, 1e-8*math.Max(1, a.MaxAbs())) {
			t.Fatalf("n=%d: VΛVᵀ does not reconstruct A", n)
		}
		// Descending order.
		for i := 1; i < n; i++ {
			if eig.Values[i] > eig.Values[i-1]+1e-12 {
				t.Fatalf("n=%d: eigenvalues not descending: %v", n, eig.Values)
			}
		}
	}
}

func TestSymEigenPSDGramIsNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 30, 8)
	g := a.Gram()
	eig, err := SymEigen(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range eig.Values {
		if v < -1e-8 {
			t.Fatalf("gram matrix eigenvalue negative: %v", v)
		}
	}
}

func TestSymEigenErrors(t *testing.T) {
	nan, posInf, negInf := NewMatrix(2, 2), NewMatrix(3, 3), NewMatrix(3, 3)
	nan.Set(0, 1, math.NaN())
	posInf.Set(2, 2, math.Inf(1))
	negInf.Set(1, 0, math.Inf(-1))
	for _, s := range eigenSolvers {
		if _, err := s.solve(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
			t.Fatalf("%s: non-square: %v", s.name, err)
		}
		for _, bad := range []*Matrix{nan, posInf, negInf} {
			if _, err := s.solve(bad); !errors.Is(err, ErrNotFinite) {
				t.Fatalf("%s: non-finite input: %v", s.name, err)
			}
		}
		empty, err := s.solve(NewMatrix(0, 0))
		if err != nil {
			t.Fatalf("%s: empty: %v", s.name, err)
		}
		if len(empty.Values) != 0 || empty.Vectors.Rows() != 0 {
			t.Fatalf("%s: empty must yield no eigenpairs", s.name)
		}
		zero, err := s.solve(NewMatrix(3, 3))
		if err != nil {
			t.Fatalf("%s: zero matrix: %v", s.name, err)
		}
		for _, v := range zero.Values {
			if v != 0 {
				t.Fatalf("%s: zero matrix eigenvalues = %v", s.name, zero.Values)
			}
		}
		checkOrthonormalColumns(t, zero.Vectors, 0)
	}
	// Finite input whose largest eigenvalue is not: the QL solver must say so
	// rather than hand back Inf/NaN pairs.
	huge := NewMatrix(3, 3)
	for i := range huge.data {
		huge.data[i] = 1e308
	}
	if eig, err := SymEigen(huge); !errors.Is(err, ErrNoConverge) {
		t.Fatalf("overflowing input: %v, %v", eig, err)
	}
}

// eigenResiduals returns ‖A·V − V·Λ‖_F and ‖Vᵀ·V − I‖_F.
func eigenResiduals(t *testing.T, a *Matrix, eig *EigenSym) (residual, orth float64) {
	t.Helper()
	n := a.Rows()
	av, err := a.Mul(eig.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			av.data[i*n+j] -= eig.Vectors.data[i*n+j] * eig.Values[j]
		}
	}
	vtv := eig.Vectors.Gram()
	for i := 0; i < n; i++ {
		vtv.data[i*n+i]--
	}
	return av.FrobeniusNorm(), vtv.FrobeniusNorm()
}

// rotated returns Q·diag(spectrum)·Qᵀ for a seeded random orthogonal Q.
func rotated(t *testing.T, rng *rand.Rand, spectrum []float64) *Matrix {
	t.Helper()
	n := len(spectrum)
	qr, err := ComputeQR(randomMatrix(rng, n, n))
	if err != nil {
		t.Fatal(err)
	}
	ql := qr.Q.Clone()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ql.data[i*n+j] *= spectrum[j]
		}
	}
	a, err := ql.Mul(qr.Q.T())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func diagonal(d ...float64) *Matrix {
	a := NewMatrix(len(d), len(d))
	for i, v := range d {
		a.Set(i, i, v)
	}
	return a
}

// TestSymEigenMatchesJacobi is the differential test of the QL solver
// against the Jacobi kernel it replaced on the model-build path, over the
// shapes that path sees (SPD Grams at the deployed sizes, a rank-deficient
// sketch Gram) and the ones tridiagonal QL is known to be touchy about
// (repeated eigenvalues, a spectrum graded over 16 decades, zero and
// already-diagonal input, where tridiagonalize takes its scale == 0 branch).
//
// With ε = 2⁻⁵² and ‖A‖ the Frobenius norm:
//
//	|λ_ql − λ_jacobi| ≤ 2·n·ε·‖A‖     (worst measured here: 0.48 of it)
//	‖AV − VΛ‖_F      ≤ 2·n·ε·‖A‖     (ql 0.15, jacobi 0.52)
//	‖VᵀV − I‖_F      ≤ 4·n·ε  for ql  (0.47)
//	                 ≤ 16·n·ε for jacobi (0.65; ~10× the plane rotations)
//
// and where an eigenvalue of an SPD case is separated from its neighbours
// by gap, the two unit eigenvectors agree up to sign within n·ε·‖A‖/gap
// (0.18), the Davis–Kahan shape of the same backward error.
func TestSymEigenMatchesJacobi(t *testing.T) {
	const eps = 0x1p-52
	rng := rand.New(rand.NewSource(26))
	spd := func(n int) *Matrix { return randomMatrix(rng, 2*n+3, n).Gram() }
	graded := make([]float64, 17)
	for i := range graded {
		graded[i] = math.Pow(10, -float64(i))
	}
	cases := []struct {
		name    string
		a       *Matrix
		vectors bool // compare the leading eigenvectors too
	}{
		{"spd/n=1", spd(1), true},
		{"spd/n=2", spd(2), true},
		{"spd/n=3", spd(3), true},
		{"spd/n=20", spd(20), true},
		{"spd/n=81", spd(81), true},
		{"spd/n=144", spd(144), true},
		{"rank-deficient gram l=100 m=144", randomMatrix(rng, 100, 144).Gram(), false},
		{"identity", Identity(12), false},
		{"2I+I", diagonal(2, 2, 2, 2, 2, 1, 1, 1, 1), false},
		{"2I+I rotated", rotated(t, rng, []float64{2, 2, 2, 2, 2, 1, 1, 1, 1}), false},
		{"graded 1e0..1e-16", rotated(t, rng, graded), false},
		{"zero", NewMatrix(5, 5), false},
		{"diagonal", diagonal(3, -1, 7, 0, 2), false},
	}
	for _, tc := range cases {
		n := tc.a.Rows()
		norm := tc.a.FrobeniusNorm()
		nEps := float64(n) * eps
		ql, err := SymEigen(tc.a)
		if err != nil {
			t.Fatalf("%s: ql: %v", tc.name, err)
		}
		jac, err := SymEigenJacobi(tc.a)
		if err != nil {
			t.Fatalf("%s: jacobi: %v", tc.name, err)
		}
		for _, got := range []struct {
			solver string
			eig    *EigenSym
			orthC  float64
		}{{"ql", ql, 4}, {"jacobi", jac, 16}} {
			res, orth := eigenResiduals(t, tc.a, got.eig)
			if res > 2*nEps*norm {
				t.Errorf("%s: %s: ‖AV−VΛ‖_F = %.3g > %.3g", tc.name, got.solver, res, 2*nEps*norm)
			}
			if orth > got.orthC*nEps {
				t.Errorf("%s: %s: ‖VᵀV−I‖_F = %.3g > %.3g", tc.name, got.solver, orth, got.orthC*nEps)
			}
			for i := 1; i < n; i++ {
				if got.eig.Values[i] > got.eig.Values[i-1] {
					t.Errorf("%s: %s: eigenvalues not descending at %d", tc.name, got.solver, i)
				}
			}
		}
		for i := range ql.Values {
			if d := math.Abs(ql.Values[i] - jac.Values[i]); d > 2*nEps*norm {
				t.Errorf("%s: λ_%d: ql %v vs jacobi %v (Δ %.3g > %.3g)",
					tc.name, i, ql.Values[i], jac.Values[i], d, 2*nEps*norm)
			}
		}
		if !tc.vectors {
			continue
		}
		for j := 0; j < n && j < 6; j++ {
			gap := math.Inf(1)
			if j > 0 {
				gap = jac.Values[j-1] - jac.Values[j]
			}
			if j+1 < n {
				gap = math.Min(gap, jac.Values[j]-jac.Values[j+1])
			}
			u, v := col(ql.Vectors, j), col(jac.Vectors, j)
			if Dot(u, v) < 0 {
				ScaleVec(v, -1)
			}
			AddScaled(u, -1, v)
			if d, tol := Norm(u), nEps*norm/gap; d > tol {
				t.Errorf("%s: eigenvector %d: ‖v_ql ∓ v_jacobi‖ = %.3g > %.3g (gap %.3g)", tc.name, j, d, tol, gap)
			}
		}
	}
}

// TestSymEigenPureFunction: the input comes back bit-unchanged and two calls
// on one input return identical bits, for both solvers — the determinism
// tests downstream (federated differential, staged vs deployed benchmark
// decisions) rest on it.
func TestSymEigenPureFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, s := range eigenSolvers {
		for _, n := range []int{1, 9, 64} {
			// Slightly asymmetric on purpose: the solvers symmetrize a copy.
			a := randomSymmetric(rng, n)
			a.data[n-1] += 1e-9
			before := a.Clone()
			first, err := s.solve(a)
			if err != nil {
				t.Fatalf("%s n=%d: %v", s.name, n, err)
			}
			if !bitIdentical(a, before) {
				t.Fatalf("%s n=%d: input modified", s.name, n)
			}
			second, err := s.solve(a)
			if err != nil {
				t.Fatalf("%s n=%d: %v", s.name, n, err)
			}
			for i := range first.Values {
				if math.Float64bits(first.Values[i]) != math.Float64bits(second.Values[i]) {
					t.Fatalf("%s n=%d: eigenvalue %d differs between calls", s.name, n, i)
				}
			}
			if !bitIdentical(first.Vectors, second.Vectors) {
				t.Fatalf("%s n=%d: eigenvectors differ between calls", s.name, n)
			}
		}
	}
}

// Property: trace(A) == Σ eigenvalues and ‖A‖F² == Σ λ².
func TestQuickEigenInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randomSymmetric(r, n)
		eig, err := SymEigen(a)
		if err != nil {
			return false
		}
		var tr float64
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
		}
		var sum, sumSq float64
		for _, v := range eig.Values {
			sum += v
			sumSq += v * v
		}
		fn := a.FrobeniusNorm()
		return almostEqual(tr, sum, 1e-8*math.Max(1, math.Abs(tr))) &&
			almostEqual(fn*fn, sumSq, 1e-7*math.Max(1, fn*fn))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: A·v_j == λ_j·v_j for every eigenpair.
func TestQuickEigenPairsSatisfyDefinition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(7)
		a := randomSymmetric(r, n)
		eig, err := SymEigen(a)
		if err != nil {
			return false
		}
		for j := 0; j < n; j++ {
			v := col(eig.Vectors, j)
			av, err := a.MulVec(v)
			if err != nil {
				return false
			}
			for i := range av {
				if !almostEqual(av[i], eig.Values[j]*v[i], 1e-7*math.Max(1, a.MaxAbs())) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
