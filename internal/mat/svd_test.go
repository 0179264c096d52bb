package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSVDKnownDiagonal(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{3, 0}, {0, -4}, {0, 0}})
	svd, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(svd.Values[0], 4, 1e-12) || !almostEqual(svd.Values[1], 3, 1e-12) {
		t.Fatalf("singular values = %v, want [4 3]", svd.Values)
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := [][2]int{{1, 1}, {3, 2}, {2, 3}, {10, 4}, {4, 10}, {20, 20}, {50, 7}}
	for _, sh := range shapes {
		a := randomMatrix(rng, sh[0], sh[1])
		svd, err := ComputeSVD(a)
		if err != nil {
			t.Fatalf("%v: %v", sh, err)
		}
		us := svd.U.Clone()
		for i := 0; i < us.Rows(); i++ {
			for j, sv := range svd.Values {
				us.Set(i, j, us.At(i, j)*sv)
			}
		}
		back, err := us.Mul(svd.V.T())
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(a, 1e-9*math.Max(1, a.MaxAbs())) {
			t.Fatalf("%v: UΣVᵀ does not reconstruct A", sh)
		}
		checkOrthonormalColumns(t, svd.U, 1e-9)
		checkOrthonormalColumns(t, svd.V, 1e-9)
		for i := 1; i < len(svd.Values); i++ {
			if svd.Values[i] > svd.Values[i-1]+1e-12 {
				t.Fatalf("%v: singular values not descending: %v", sh, svd.Values)
			}
		}
		for _, v := range svd.Values {
			if v < 0 {
				t.Fatalf("%v: negative singular value %v", sh, v)
			}
		}
	}
}

func TestSVDMatchesEigenOfGram(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomMatrix(rng, 40, 12)
	svd, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	eig, err := SymEigen(a.Gram())
	if err != nil {
		t.Fatal(err)
	}
	for j := range svd.Values {
		ev := eig.Values[j]
		if ev < 0 {
			ev = 0
		}
		if !almostEqual(svd.Values[j], math.Sqrt(ev), 1e-8*math.Max(1, svd.Values[0])) {
			t.Fatalf("σ_%d = %v but sqrt(λ_%d) = %v", j, svd.Values[j], j, math.Sqrt(ev))
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: outer product.
	a := NewMatrix(5, 4)
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, float64(i+1)*float64(j+1))
		}
	}
	svd, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range svd.Values[1:] {
		if v > 1e-10*svd.Values[0] {
			t.Fatalf("rank-1 matrix has singular values %v", svd.Values)
		}
	}
}

func TestSVDZeroAndEmpty(t *testing.T) {
	z, err := ComputeSVD(NewMatrix(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range z.Values {
		if v != 0 {
			t.Fatalf("zero matrix singular values = %v", z.Values)
		}
	}
	e, err := ComputeSVD(NewMatrix(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Values) != 0 {
		t.Fatal("empty matrix must have no singular values")
	}
}

func TestSVDNotFinite(t *testing.T) {
	bad := NewMatrix(2, 2)
	bad.Set(0, 0, math.Inf(-1))
	if _, err := ComputeSVD(bad); !errors.Is(err, ErrNotFinite) {
		t.Fatalf("want ErrNotFinite, got %v", err)
	}
}

// Property: ‖A‖F² == Σ σ² (singular values capture all energy).
func TestQuickSVDEnergy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 1+r.Intn(12), 1+r.Intn(12))
		svd, err := ComputeSVD(a)
		if err != nil {
			return false
		}
		var sumSq float64
		for _, v := range svd.Values {
			sumSq += v * v
		}
		fn := a.FrobeniusNorm()
		return almostEqual(fn*fn, sumSq, 1e-7*math.Max(1, fn*fn))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: A·v_j == σ_j·u_j (definition of singular pairs).
func TestQuickSVDSingularPairs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 2+r.Intn(8), 1+r.Intn(6)
		a := randomMatrix(r, n, m)
		svd, err := ComputeSVD(a)
		if err != nil {
			return false
		}
		for j := range svd.Values {
			av, err := a.MulVec(col(svd.V, j))
			if err != nil {
				return false
			}
			u := col(svd.U, j)
			for i := range av {
				if !almostEqual(av[i], svd.Values[j]*u[i], 1e-7*math.Max(1, a.MaxAbs())) {
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
