package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

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
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(eig.Values[0], 3, 1e-12) || !almostEqual(eig.Values[1], 1, 1e-12) {
		t.Fatalf("eigenvalues = %v, want [3 1]", eig.Values)
	}
	checkOrthonormalColumns(t, eig.Vectors, 1e-12)
}

func TestSymEigenDiagonal(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{5, 0, 0}, {0, -1, 0}, {0, 0, 2}})
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 2, -1}
	for i, w := range want {
		if !almostEqual(eig.Values[i], w, 1e-12) {
			t.Fatalf("values = %v, want %v", eig.Values, want)
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
	if _, err := SymEigen(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("non-square: %v", err)
	}
	bad := NewMatrix(2, 2)
	bad.Set(0, 1, math.NaN())
	if _, err := SymEigen(bad); !errors.Is(err, ErrNotFinite) {
		t.Fatalf("NaN input: %v", err)
	}
	empty, err := SymEigen(NewMatrix(0, 0))
	if err != nil {
		t.Fatalf("empty: %v", err)
	}
	if len(empty.Values) != 0 {
		t.Fatal("empty must yield no eigenvalues")
	}
	zero, err := SymEigen(NewMatrix(3, 3))
	if err != nil {
		t.Fatalf("zero matrix: %v", err)
	}
	for _, v := range zero.Values {
		if v != 0 {
			t.Fatalf("zero matrix eigenvalues = %v", zero.Values)
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
