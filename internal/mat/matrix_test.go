package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// col returns a copy of column j.
func col(m *Matrix, j int) []float64 {
	out := make([]float64, m.Rows())
	for i := range out {
		out[i] = m.At(i, j)
	}
	return out
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func randomSymmetric(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestNewMatrixFromRows(t *testing.T) {
	tests := []struct {
		name    string
		rows    [][]float64
		wantErr bool
		r, c    int
	}{
		{name: "empty", rows: nil, r: 0, c: 0},
		{name: "rect", rows: [][]float64{{1, 2, 3}, {4, 5, 6}}, r: 2, c: 3},
		{name: "ragged", rows: [][]float64{{1, 2}, {3}}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := NewMatrixFromRows(tt.rows)
			if tt.wantErr {
				if !errors.Is(err, ErrShape) {
					t.Fatalf("want ErrShape, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if m.Rows() != tt.r || m.Cols() != tt.c {
				t.Fatalf("shape = %dx%d, want %dx%d", m.Rows(), m.Cols(), tt.r, tt.c)
			}
		})
	}
}

func TestMatrixRowColAccess(t *testing.T) {
	m, err := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	row := m.Row(1)
	row[0] = 99 // copy: must not affect m
	if m.At(1, 0) != 4 {
		t.Fatalf("Row returned a view, want copy")
	}
	c := make([]float64, 2)
	if err := m.ColInto(2, c); err != nil || c[0] != 3 || c[1] != 6 {
		t.Fatalf("ColInto(2) = %v, %v", c, err)
	}
	view := m.RowView(0)
	view[0] = 42
	if m.At(0, 0) != 42 {
		t.Fatalf("RowView must share storage")
	}
}

func TestMatrixTranspose(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("T shape = %dx%d", mt.Rows(), mt.Cols())
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !m.T().T().Equal(m, 0) {
		t.Fatal("double transpose must be identity")
	}
}

func TestMatrixMul(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewMatrixFromRows([][]float64{{5, 6}, {7, 8}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewMatrixFromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("a·b = %v, want %v", got, want)
	}
	if _, err := a.Mul(NewMatrix(3, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestMatrixSub(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewMatrixFromRows([][]float64{{4, 3}, {2, 1}})
	sum, _ := NewMatrixFromRows([][]float64{{5, 5}, {5, 5}})
	diff, err := sum.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Equal(a, 0) {
		t.Fatalf("(a+b)−b = %v, want a", diff)
	}
	if _, err := a.Sub(NewMatrix(1, 2)); !errors.Is(err, ErrShape) {
		t.Fatal("Sub must reject shape mismatch")
	}
}

func TestMulVecAndTMulVec(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got, err := a.MulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
	gotT, err := a.TMulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if gotT[0] != 5 || gotT[1] != 7 || gotT[2] != 9 {
		t.Fatalf("TMulVec = %v", gotT)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatal("MulVec must reject shape mismatch")
	}
	if _, err := a.TMulVec([]float64{1, 2, 3}); !errors.Is(err, ErrShape) {
		t.Fatal("TMulVec must reject shape mismatch")
	}
}

func TestGramMatchesExplicitProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		a := randomMatrix(rng, 1+rng.Intn(12), 1+rng.Intn(8))
		want, err := a.T().Mul(a)
		if err != nil {
			t.Fatal(err)
		}
		got := a.Gram()
		if !got.Equal(want, 1e-10) {
			t.Fatalf("Gram mismatch for %dx%d", a.Rows(), a.Cols())
		}
	}
}

func TestCenterColumns(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, 10}, {3, 20}, {5, 30}})
	means := m.CenterColumns()
	if !almostEqual(means[0], 3, 1e-12) || !almostEqual(means[1], 20, 1e-12) {
		t.Fatalf("means = %v", means)
	}
	for j := 0; j < m.Cols(); j++ {
		var s float64
		for i := 0; i < m.Rows(); i++ {
			s += m.At(i, j)
		}
		if !almostEqual(s, 0, 1e-12) {
			t.Fatalf("column %d not centered: sum %v", j, s)
		}
	}
	empty := NewMatrix(0, 3)
	if got := empty.CenterColumns(); len(got) != 3 {
		t.Fatalf("empty matrix means length = %d", len(got))
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{3, 0}, {0, 4}})
	if got := m.FrobeniusNorm(); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("‖m‖F = %v, want 5", got)
	}
	if got := NewMatrix(0, 0).FrobeniusNorm(); got != 0 {
		t.Fatalf("empty norm = %v", got)
	}
	big := NewMatrix(1, 2)
	big.Set(0, 0, 1e200)
	big.Set(0, 1, 1e200)
	if got := big.FrobeniusNorm(); math.IsInf(got, 0) {
		t.Fatal("scaled accumulation must not overflow")
	}
}

func TestMaxAbs(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, -9}, {2, 3}})
	if m.MaxAbs() != 9 {
		t.Fatalf("maxabs = %v", m.MaxAbs())
	}
}

func TestIsFinite(t *testing.T) {
	m := NewMatrix(2, 2)
	if !m.IsFinite() {
		t.Fatal("zero matrix is finite")
	}
	m.Set(1, 1, math.NaN())
	if m.IsFinite() {
		t.Fatal("NaN must be detected")
	}
	m.Set(1, 1, math.Inf(1))
	if m.IsFinite() {
		t.Fatal("Inf must be detected")
	}
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 5, 5)
	got, err := Identity(5).Mul(a)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(a, 1e-14) {
		t.Fatal("I·A != A")
	}
}

func TestMatrixString(t *testing.T) {
	small, _ := NewMatrixFromRows([][]float64{{1, 2}})
	if s := small.String(); s == "" {
		t.Fatal("String must render")
	}
	big := NewMatrix(20, 20)
	if s := big.String(); len(s) > 2000 {
		t.Fatalf("String of large matrix not elided: %d bytes", len(s))
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random small matrices.
func TestQuickTransposeOfProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k, m := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randomMatrix(rng, n, k)
		b := randomMatrix(rng, k, m)
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		btat, err := b.T().Mul(a.T())
		if err != nil {
			return false
		}
		return ab.T().Equal(btat, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Frobenius norm is invariant under transposition.
func TestQuickFrobeniusTransposeInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 1+r.Intn(10), 1+r.Intn(10))
		return almostEqual(a.FrobeniusNorm(), a.T().FrobeniusNorm(), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
