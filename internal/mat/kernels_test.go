package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func randomSparseMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
		if rng.Intn(8) == 0 {
			m.data[i] = 0 // exercise the sparse skip paths
		}
	}
	return m
}

// naiveMul is the dense reference product: no blocking, no zero skip, the
// k-sum of every entry in ascending order.
func naiveMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s float64
			for k := 0; k < a.cols; k++ {
				s += a.data[i*a.cols+k] * b.data[k*b.cols+j]
			}
			out.data[i*b.cols+j] = s
		}
	}
	return out
}

// TestGramWorkersMatchesTranspose pins Gram's paired-row kernel to mᵀ·m
// across shapes (tall, wide, tiny, odd row counts): pairing reorders the
// per-entry sums, so the comparison is tolerance-based, not bit-exact.
func TestGramWorkersMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := [][2]int{{1, 1}, {3, 2}, {17, 33}, {64, 64}, {50, 200}, {256, 81}, {128, 256}, {300, 256}, {1200, 64}, {700, 96}}
	for _, sh := range shapes {
		m := randomSparseMatrix(rng, sh[0], sh[1])
		want, err := m.T().Mul(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Gram(); !got.Equal(want, 1e-9*math.Max(1, want.MaxAbs())) {
			t.Fatalf("%dx%d: Gram deviates from mᵀ·m", sh[0], sh[1])
		}
	}
}

// TestGramIntoIsGram: GramInto writes Gram's bits over whatever dst held,
// and refuses a dst of another shape.
func TestGramIntoIsGram(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := randomSparseMatrix(rng, 17, 9)
	dst := randomSparseMatrix(rng, 9, 9)
	if err := m.GramInto(dst); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(m.Gram(), 0) {
		t.Fatal("GramInto differs from Gram")
	}
	if err := m.GramInto(NewMatrix(9, 8)); !errors.Is(err, ErrShape) {
		t.Fatalf("a 9x8 dst: err = %v, want ErrShape", err)
	}
}

// TestGramWorkersZeroHeavy: Gram's zero-skip fast path must agree with a
// dense reference on matrices dominated by zeros (whole zero rows, zero columns,
// and isolated nonzeros — the shapes the sparse projection families actually
// produce).
func TestGramWorkersZeroHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, sh := range [][2]int{{256, 81}, {600, 64}, {37, 21}} {
		m := NewMatrix(sh[0], sh[1])
		for i := 0; i < sh[0]; i++ {
			if rng.Intn(4) == 0 {
				continue // whole zero row
			}
			for j := 0; j < sh[1]; j++ {
				if j%7 == 3 {
					continue // structurally zero column stripe
				}
				if rng.Intn(10) == 0 {
					m.Set(i, j, rng.NormFloat64())
				}
			}
		}
		want := naiveMul(m.T(), m)
		if got := m.Gram(); !got.Equal(want, 1e-12*math.Max(1, want.MaxAbs())) {
			t.Fatalf("%dx%d: zero-heavy Gram deviates from the dense reference", sh[0], sh[1])
		}
	}
}

// TestGramWorkersSymmetric: Gram's mirrored lower triangle must exactly
// equal the upper one.
func TestGramWorkersSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomSparseMatrix(rng, 100, 130).Gram()
	for a := 0; a < g.Rows(); a++ {
		for b := a + 1; b < g.Cols(); b++ {
			if g.At(a, b) != g.At(b, a) {
				t.Fatalf("asymmetry at (%d,%d)", a, b)
			}
		}
	}
}

// TestMulWorkersBitIdentical: k-blocking and the zero skip leave every
// entry's summation order ascending, so Mul equals the dense reference bit
// for bit.
func TestMulWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// {64, 600, 64} forces several k-blocks (the inner dimension exceeds one
	// L2 panel of o's rows), exercising the blocked accumulation order.
	shapes := [][3]int{{1, 1, 1}, {5, 3, 4}, {33, 17, 29}, {81, 81, 81}, {128, 200, 64}, {256, 128, 256}, {64, 600, 64}}
	for _, sh := range shapes {
		a := randomSparseMatrix(rng, sh[0], sh[1])
		b := randomSparseMatrix(rng, sh[1], sh[2])
		got, err := a.Mul(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(naiveMul(a, b), got) {
			t.Fatalf("%v: blocked Mul differs from the dense reference", sh)
		}
	}
}

func TestMulWorkersShapeError(t *testing.T) {
	if _, err := NewMatrix(3, 4).Mul(NewMatrix(5, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

// TestSymEigenWorkersCorrect checks both entry points' decompositions from
// tiny inputs up to the detector's dimensions, odd and even n: orthonormal V,
// A·V ≈ V·Λ, descending eigenvalues.
func TestSymEigenWorkersCorrect(t *testing.T) {
	for _, s := range eigenSolvers {
		rng := rand.New(rand.NewSource(45))
		for _, n := range []int{2, 7, 64, 96, 120, 150, 161} {
			a := randomSymmetric(rng, n)
			eig, err := s.solve(a)
			if err != nil {
				t.Fatalf("%s n=%d: %v", s.name, n, err)
			}
			checkOrthonormalColumns(t, eig.Vectors, 1e-9)
			av, err := a.Mul(eig.Vectors)
			if err != nil {
				t.Fatal(err)
			}
			lam := NewMatrix(n, n)
			for i, v := range eig.Values {
				lam.Set(i, i, v)
			}
			vl, err := eig.Vectors.Mul(lam)
			if err != nil {
				t.Fatal(err)
			}
			if !av.Equal(vl, 1e-8*math.Max(1, a.MaxAbs())) {
				t.Fatalf("%s n=%d: A·V does not match V·Λ", s.name, n)
			}
			for i := 1; i < n; i++ {
				if eig.Values[i] > eig.Values[i-1]+1e-12 {
					t.Fatalf("%s n=%d: eigenvalues not descending at %d", s.name, n, i)
				}
			}
		}
	}
}

func TestColInto(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	m := randomSparseMatrix(rng, 13, 9)
	dst := make([]float64, 13)
	for j := 0; j < 9; j++ {
		if err := m.ColInto(j, dst); err != nil {
			t.Fatal(err)
		}
		want := col(m, j)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("col %d row %d: %v != %v", j, i, dst[i], want[i])
			}
		}
	}
	if err := m.ColInto(0, make([]float64, 5)); err == nil {
		t.Fatal("want shape error for short buffer")
	}
}

func TestMulVecTo(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := randomSparseMatrix(rng, 11, 17)
	v := make([]float64, 17)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	want, err := m.MulVec(v)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 11)
	if err := m.MulVecTo(dst, v); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("row %d: %v != %v", i, dst[i], want[i])
		}
	}
	if err := m.MulVecTo(make([]float64, 3), v); err == nil {
		t.Fatal("want shape error for short dst")
	}
	if err := m.MulVecTo(dst, make([]float64, 4)); err == nil {
		t.Fatal("want shape error for short v")
	}
}

func TestTMulVecTo(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	m := randomSparseMatrix(rng, 11, 17)
	v := make([]float64, 11)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	want, err := m.T().MulVec(v)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 17)
	for i := range dst {
		dst[i] = math.NaN() // overwritten, not accumulated into
	}
	if err := m.TMulVecTo(dst, v); err != nil {
		t.Fatal(err)
	}
	for j := range dst {
		if dst[j] != want[j] {
			t.Fatalf("column %d: %v != %v", j, dst[j], want[j])
		}
	}
	if err := m.TMulVecTo(make([]float64, 3), v); !errors.Is(err, ErrShape) {
		t.Fatal("want shape error for short dst")
	}
	if err := m.TMulVecTo(dst, make([]float64, 4)); !errors.Is(err, ErrShape) {
		t.Fatal("want shape error for short v")
	}
}

// bitIdentical reports exact elementwise equality (no tolerance).
func bitIdentical(a, b *Matrix) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return false
		}
	}
	return true
}
