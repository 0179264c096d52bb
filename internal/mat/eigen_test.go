package mat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

// eigenSolvers are the two entry points of the one Householder + QL solver:
// SymEigen and the same solve factored for leading vectors (asked here for
// all n). Contract tests run over both.
var eigenSolvers = []struct {
	name  string
	solve func(*Matrix) (*EigenSym, error)
}{
	{"ql", SymEigen},
	{"leading", symEigenViaLeading},
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

// rotated returns A = Q·diag(spectrum)·Qᵀ and Q for a seeded random
// orthogonal Q: an input whose eigendecomposition is known exactly, up to the
// rounding of forming A.
func rotated(t *testing.T, rng *rand.Rand, spectrum []float64) (a, q *Matrix) {
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
	a, err = ql.Mul(qr.Q.T())
	if err != nil {
		t.Fatal(err)
	}
	return a, qr.Q
}

func diagonal(d ...float64) *Matrix {
	a := NewMatrix(len(d), len(d))
	for i, v := range d {
		a.Set(i, i, v)
	}
	return a
}

// gramLike is a prescribed spectrum shaped like a traffic Gram's: a few
// dominant, well-separated directions (100·2⁻ʲ) over a slowly decaying floor
// (1/(j+1)), all positive and distinct.
func gramLike(n int) []float64 {
	s := make([]float64, n)
	for j := range s {
		s[j] = 100*math.Pow(0.5, float64(j)) + 1/float64(j+1)
	}
	return s
}

// TestSymEigenPrescribedDecompositions holds SymEigen to inputs whose
// decomposition is known: A = Q·diag(λ)·Qᵀ with Q from ComputeQR, over
// Gram-like spectra at the sizes the model build sees (n up to the deployed
// m = 144), the shapes tridiagonal QL is known to be touchy about (repeated
// eigenvalues, a spectrum graded over 16 decades) and already-diagonal input
// (Q = I, where every eigenpair is its own block). A rank-deficient sketch
// Gram, with no prescribed spectrum, is held to the residual bounds alone.
//
// With ε = 2⁻⁵² and ‖A‖ the Frobenius norm (worst measured in parentheses,
// as a fraction of the bound):
//
//	|λ_j − λ_j(prescribed)| ≤ 2·n·ε·‖A‖   (0.50)
//	‖AV − VΛ‖_F             ≤ 2·n·ε·‖A‖   (0.19)
//	‖VᵀV − I‖_F             ≤ 4·n·ε       (0.63)
//
// and for the six leading eigenvectors of a Gram-like case, separated from
// their neighbours by gap, ‖v_j ∓ q_j‖ ≤ n·ε·‖A‖/gap (0.68), the Davis–Kahan
// shape of the same backward error; the prescribed λ and Q carry the rounding
// of forming A, which these bounds cover.
//
// The leading factorization runs over the same table through checkLeading,
// and everything runs on both row-update paths (onBothKernelPaths).
func TestSymEigenPrescribedDecompositions(t *testing.T) {
	onBothKernelPaths(t, symEigenPrescribedDecompositions)
}

func symEigenPrescribedDecompositions(t *testing.T) {
	const eps = 0x1p-52
	rng := rand.New(rand.NewSource(26))
	type eigenCase struct {
		name   string
		a      *Matrix
		values []float64 // the prescribed spectrum, descending; nil: none
		q      *Matrix   // column j the eigenvector of values[j]; nil: not compared
	}
	var cases []eigenCase
	prescribe := func(name string, spectrum []float64, vectors bool) {
		a, q := rotated(t, rng, spectrum)
		if !vectors {
			q = nil
		}
		cases = append(cases, eigenCase{name, a, spectrum, q})
	}
	for _, n := range []int{1, 2, 3, 20, 81, 144} {
		prescribe(fmt.Sprintf("gram-like/n=%d", n), gramLike(n), true)
	}
	twoAndOne := []float64{2, 2, 2, 2, 2, 1, 1, 1, 1}
	graded := make([]float64, 17)
	for i := range graded {
		graded[i] = math.Pow(10, -float64(i))
	}
	prescribe("2I+I rotated", twoAndOne, false)
	prescribe("graded 1e0..1e-16", graded, false)
	ones := make([]float64, 12)
	for i := range ones {
		ones[i] = 1
	}
	cases = append(cases,
		eigenCase{"rank-deficient gram l=100 m=144", randomMatrix(rng, 100, 144).Gram(), nil, nil},
		eigenCase{"identity", Identity(12), ones, nil},
		eigenCase{"2I+I", diagonal(twoAndOne...), twoAndOne, nil},
		eigenCase{"zero", NewMatrix(5, 5), make([]float64, 5), nil},
		eigenCase{"diagonal", diagonal(3, -1, 7, 0, 2), []float64{7, 3, 2, 0, -1}, nil},
	)
	for _, tc := range cases {
		n := tc.a.Rows()
		norm := tc.a.FrobeniusNorm()
		nEps := float64(n) * eps
		eig, err := SymEigen(tc.a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, orth := eigenResiduals(t, tc.a, eig)
		if res > 2*nEps*norm {
			t.Errorf("%s: ‖AV−VΛ‖_F = %.3g > %.3g", tc.name, res, 2*nEps*norm)
		}
		if orth > 4*nEps {
			t.Errorf("%s: ‖VᵀV−I‖_F = %.3g > %.3g", tc.name, orth, 4*nEps)
		}
		for i := 1; i < n; i++ {
			if eig.Values[i] > eig.Values[i-1] {
				t.Errorf("%s: eigenvalues not descending at %d", tc.name, i)
			}
		}
		for i, want := range tc.values {
			if d := math.Abs(eig.Values[i] - want); d > 2*nEps*norm {
				t.Errorf("%s: λ_%d = %v, prescribed %v (Δ %.3g > %.3g)", tc.name, i, eig.Values[i], want, d, 2*nEps*norm)
			}
		}
		checkLeading(t, tc.name, tc.a, eig)
		if tc.q == nil {
			continue
		}
		for j := 0; j < n && j < 6; j++ {
			gap := math.Inf(1)
			if j > 0 {
				gap = tc.values[j-1] - tc.values[j]
			}
			if j+1 < n {
				gap = math.Min(gap, tc.values[j]-tc.values[j+1])
			}
			u, v := col(eig.Vectors, j), col(tc.q, j)
			if Dot(u, v) < 0 {
				ScaleVec(v, -1)
			}
			AddScaled(u, -1, v)
			if d, tol := Norm(u), nEps*norm/gap; d > tol {
				t.Errorf("%s: eigenvector %d: ‖v ∓ q‖ = %.3g > %.3g (gap %.3g)", tc.name, j, d, tol, gap)
			}
		}
	}
}

// TestSymEigenReducibleBlocks: a block-diagonal matrix with its indices
// interleaved — three blocks, one of them 1×1, the eigenvalue 3 in each — is
// solved block by block, so every eigenvector is non-zero on exactly one
// block's indices. A whole-matrix reduction mixes the blocks at rounding
// level. The pairs still decompose A within TestSymEigenPrescribedDecompositions'
// bounds, the values are the blocks' spectra, and SymEigenLeading, which does
// not split, agrees on them to the same bound.
func TestSymEigenReducibleBlocks(t *testing.T) {
	const eps = 0x1p-52
	rng := rand.New(rand.NewSource(31))
	spectra := [][]float64{{5, 3, 2, 1, 0.5}, {4, 3, 1.5, 0.25}, {3}}
	owner := []int{0, 1, 0, 2, 1, 0, 1, 0, 1, 0} // the block of each index
	n := len(owner)
	a := NewMatrix(n, n)
	var want []float64
	for b, spectrum := range spectra {
		var idx []int
		for i, o := range owner {
			if o == b {
				idx = append(idx, i)
			}
		}
		blk, _ := rotated(t, rng, spectrum)
		k := len(idx)
		for i, r := range idx {
			for j, c := range idx {
				a.data[r*n+c] = blk.data[i*k+j]
			}
		}
		want = append(want, spectrum...)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	norm := a.FrobeniusNorm()
	nEps := float64(n) * eps
	for _, s := range eigenSolvers {
		eig, err := s.solve(a)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for i, w := range want {
			if d := math.Abs(eig.Values[i] - w); d > 2*nEps*norm {
				t.Errorf("%s: λ_%d = %v, want %v (Δ %.3g)", s.name, i, eig.Values[i], w, d)
			}
		}
		if res, orth := eigenResiduals(t, a, eig); res > 2*nEps*norm || orth > 4*nEps {
			t.Errorf("%s: ‖AV−VΛ‖_F = %.3g, ‖VᵀV−I‖_F = %.3g", s.name, res, orth)
		}
		if s.name != "ql" {
			continue
		}
		for j := 0; j < n; j++ {
			blocks := map[int]bool{}
			for i := 0; i < n; i++ {
				if eig.Vectors.At(i, j) != 0 {
					blocks[owner[i]] = true
				}
			}
			if len(blocks) != 1 {
				t.Errorf("eigenvector %d (λ = %v) is non-zero on %d blocks, want exactly 1: %v",
					j, eig.Values[j], len(blocks), col(eig.Vectors, j))
			}
		}
	}
}

// checkLeading holds SymEigenLeading on a to the bounds
// TestSymEigenPrescribedDecompositions states, with ql = SymEigen(a) as the
// reference: its values equal ql's bit for bit, and for k ∈ {0, 1, 6, n} its
// n×k basis is orthonormal within 4·n·ε (worst measured: 0.62 of it) and,
// wherever λ_{k−1} − λ_k = gap > 0, spans ql's leading-k subspace:
// ‖V_kV_kᵀ − W_kW_kᵀ‖_F ≤ n·ε·‖A‖/gap (0.18).
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
// rounds differently and skips. The AVX2 row kernels and the Go loops they
// replace must both give these digests.
func TestSymEigenPinnedDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64, running on %s", runtime.GOARCH)
	}
	onBothKernelPaths(t, symEigenPinnedDigests)
}

func symEigenPinnedDigests(t *testing.T) {
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
