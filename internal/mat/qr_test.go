package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sh := range [][2]int{{1, 1}, {4, 4}, {10, 3}, {30, 8}} {
		a := randomMatrix(rng, sh[0], sh[1])
		qr, err := ComputeQR(a)
		if err != nil {
			t.Fatalf("%v: %v", sh, err)
		}
		back, err := qr.Q.Mul(qr.R)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(a, 1e-9*math.Max(1, a.MaxAbs())) {
			t.Fatalf("%v: QR does not reconstruct A", sh)
		}
		checkOrthonormalColumns(t, qr.Q, 1e-10)
		// R upper triangular.
		for i := 0; i < qr.R.Rows(); i++ {
			for j := 0; j < i; j++ {
				if qr.R.At(i, j) != 0 {
					t.Fatalf("%v: R not upper triangular at (%d,%d)", sh, i, j)
				}
			}
		}
	}
}

func TestQRErrors(t *testing.T) {
	if _, err := ComputeQR(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("wide matrix: %v", err)
	}
	bad := NewMatrix(3, 2)
	bad.Set(0, 0, math.NaN())
	if _, err := ComputeQR(bad); !errors.Is(err, ErrNotFinite) {
		t.Fatalf("NaN: %v", err)
	}
}

func TestSolveUpperTriangular(t *testing.T) {
	x := make([]float64, 2)
	if err := backSubstitute(x, []float64{2, 1, 0, 4}, 2, []float64{5, 8}); err != nil {
		t.Fatal(err)
	}
	// 4·x1 = 8 → x1 = 2; 2·x0 + 2 = 5 → x0 = 1.5.
	if !almostEqual(x[0], 1.5, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Fatalf("x = %v", x)
	}
	if err := backSubstitute(x, []float64{1, 1, 0, 0}, 2, []float64{1, 1}); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular: %v", err)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent: b = A·[1 2]ᵀ.
	a, _ := NewMatrixFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	b := []float64{1, 2, 3}
	x, err := new(LSQ).Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1, 1e-10) || !almostEqual(x[1], 2, 1e-10) {
		t.Fatalf("x = %v, want [1 2]", x)
	}
	if _, err := new(LSQ).Solve(a, []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("shape: %v", err)
	}
}

// Property: least-squares residual is orthogonal to the column space.
func TestQuickLeastSquaresNormalEquations(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		m := 1 + r.Intn(3)
		a := randomMatrix(r, n, m)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := new(LSQ).Solve(a, b)
		if err != nil {
			return true // singular random draw: skip
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		res := make([]float64, n)
		for i := range res {
			res[i] = b[i] - ax[i]
		}
		atr, err := a.TMulVec(res)
		if err != nil {
			return false
		}
		for _, v := range atr {
			if math.Abs(v) > 1e-8*math.Max(1, Norm(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
