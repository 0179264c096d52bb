package mat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// eigenSolvers are the implementations of one contract: the Householder + QL
// solver, the same solve factored for leading vectors (asked here for all n),
// and the Jacobi kernel Frequent Directions keeps. Contract tests run over
// all three.
var eigenSolvers = []struct {
	name  string
	solve func(*Matrix) (*EigenSym, error)
}{
	{"ql", SymEigen},
	{"leading", symEigenViaLeading},
	{"jacobi", SymEigenJacobi},
}

// symEigenViaLeading is SymEigenLeading with every vector asked for.
func symEigenViaLeading(a *Matrix) (*EigenSym, error) {
	f, err := SymEigenLeading(a)
	if err != nil {
		return nil, err
	}
	v, err := f.Vectors(len(f.Values))
	if err != nil {
		return nil, err
	}
	return &EigenSym{Values: f.Values, Vectors: v}, nil
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
	// Finite input whose largest eigenvalue is not: the QL solvers must say so
	// rather than hand back Inf/NaN pairs.
	huge := NewMatrix(3, 3)
	for i := range huge.data {
		huge.data[i] = 1e308
	}
	if eig, err := SymEigen(huge); !errors.Is(err, ErrNoConverge) {
		t.Fatalf("overflowing input: %v, %v", eig, err)
	}
	if f, err := SymEigenLeading(huge); !errors.Is(err, ErrNoConverge) {
		t.Fatalf("leading: overflowing input: %v, %v", f, err)
	}
	// Leading vectors exist for 0 ≤ k ≤ n only.
	f, err := SymEigenLeading(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{-1, 4} {
		if _, err := f.Vectors(k); !errors.Is(err, ErrShape) {
			t.Fatalf("Vectors(%d) of 3: %v", k, err)
		}
	}
	for _, j := range []int{-1, 3} {
		if _, err := f.Vector(j); !errors.Is(err, ErrShape) {
			t.Fatalf("Vector(%d) of 3: %v", j, err)
		}
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
//
// The leading factorization is the third solver over the same table: its
// values equal ql's bit for bit, and for k ∈ {0, 1, 6, n} its n×k basis is
// orthonormal within 4·n·ε (worst measured: 0.35 of it) and, wherever
// λ_{k−1} − λ_k = gap > 0, spans ql's leading-k subspace:
// ‖V_kV_kᵀ − W_kW_kᵀ‖_F ≤ n·ε·‖A‖/gap (0.18).
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
		checkLeading(t, tc.name, tc.a, ql)
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

// checkLeading holds SymEigenLeading on a to the bounds
// TestSymEigenMatchesJacobi states, with ql = SymEigen(a) as the reference.
func checkLeading(t *testing.T, name string, a *Matrix, ql *EigenSym) {
	t.Helper()
	const eps = 0x1p-52
	n := a.Rows()
	nEps := float64(n) * eps
	f, err := SymEigenLeading(a)
	if err != nil {
		t.Fatalf("%s: leading: %v", name, err)
	}
	for i, v := range f.Values {
		if math.Float64bits(v) != math.Float64bits(ql.Values[i]) {
			t.Fatalf("%s: leading λ_%d = %v, ql %v", name, i, v, ql.Values[i])
		}
	}
	for _, k := range []int{0, 1, 6, n} {
		if k > n {
			continue
		}
		v, err := f.Vectors(k)
		if err != nil {
			t.Fatalf("%s: Vectors(%d): %v", name, k, err)
		}
		if v.Rows() != n || v.Cols() != k {
			t.Fatalf("%s: Vectors(%d) is %dx%d", name, k, v.Rows(), v.Cols())
		}
		vtv := v.Gram()
		for i := 0; i < k; i++ {
			vtv.data[i*k+i]--
		}
		if orth := vtv.FrobeniusNorm(); orth > 4*nEps {
			t.Errorf("%s: k=%d: ‖VᵀV−I‖_F = %.3g > %.3g", name, k, orth, 4*nEps)
		}
		for j := 0; j < k; j++ {
			u, err := f.Vector(j)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range u {
				if math.Float64bits(x) != math.Float64bits(v.At(i, j)) {
					t.Fatalf("%s: Vector(%d) differs from column %d of Vectors(%d) at %d", name, j, j, k, i)
				}
			}
		}
		if k == 0 || k == n {
			continue
		}
		gap := ql.Values[k-1] - ql.Values[k]
		if gap <= 0 {
			continue
		}
		w := NewMatrix(n, k)
		for i := 0; i < n; i++ {
			copy(w.RowView(i), ql.Vectors.RowView(i)[:k])
		}
		pv, _ := v.Mul(v.T())
		pw, _ := w.Mul(w.T())
		diff, _ := pv.Sub(pw)
		if d, tol := diff.FrobeniusNorm(), nEps*a.FrobeniusNorm()/gap; d > tol {
			t.Errorf("%s: k=%d: ‖V_kV_kᵀ − W_kW_kᵀ‖_F = %.3g > %.3g (gap %.3g)", name, k, d, tol, gap)
		}
	}
}

// TestSymEigenPinnedDigests pins SymEigen's output bit for bit: the SHA-256
// of every eigenvalue and eigenvector entry (little-endian float64 bits,
// values first, vectors row-major) for seeded inputs. SymEigen is the exact
// reference under internal/pca, the oracle and the evaluation goldens, so a
// refactor of the Householder + QL stages must not move it by one ulp. The
// digests were recorded on amd64; an architecture that fuses multiply-adds
// rounds differently and skips.
func TestSymEigenPinnedDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64, running on %s", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(30))
	cases := []struct {
		name string
		a    *Matrix
		want string
	}{
		{"n=1", randomSymmetric(rng, 1), "30d944b3f1fef8c609e100039cb2ed691c5b2fa7db64feab2a28a5c27764a134"},
		{"n=2", randomSymmetric(rng, 2), "505cfa22826f99c284137a930af5e8d302c33a408fa6ecee2c30063178333c0a"},
		{"n=16", randomSymmetric(rng, 16), "a80773cb9a3c29cdd4ead3284694439fb8265addbdd35392ed73128e3ec4d707"},
		{"n=81", randomSymmetric(rng, 81), "70b71ac8808b0d1890b77b6a51cc47e58682311505de0a0d2dca9e7a49df131f"},
		{"n=144", randomSymmetric(rng, 144), "b31fbc665f7d7669f5ea73dbeb5d42c93bb8b0d9aaea670320b51a451b0ea9d6"},
		{"rank-deficient gram l=100 m=144", randomMatrix(rng, 100, 144).Gram(), "9f464a99a34722c9e42a0a8460a459c0702d7c0c1742de843d1933c8b289c279"},
		{"2I+I", diagonal(2, 2, 2, 2, 2, 1, 1, 1, 1), "c97057756c55e62295862508a60ac4b94a17a7975bc18c1d98a5646e8ae0d9a7"},
	}
	for _, tc := range cases {
		eig, err := SymEigen(tc.a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := sha256.New()
		var buf [8]byte
		for _, x := range append(append([]float64(nil), eig.Values...), eig.Vectors.data...) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: SymEigen digest %s, want %s", tc.name, got, tc.want)
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
