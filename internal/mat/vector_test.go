package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("dot = %v", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("empty dot = %v", got)
	}
}

func TestNorm(t *testing.T) {
	tests := []struct {
		name string
		v    []float64
		want float64
	}{
		{name: "pythagorean", v: []float64{3, 4}, want: 5},
		{name: "empty", v: nil, want: 0},
		{name: "zeros", v: []float64{0, 0}, want: 0},
		{name: "single", v: []float64{-7}, want: 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Norm(tt.v); !almostEqual(got, tt.want, 1e-12) {
				t.Fatalf("norm = %v, want %v", got, tt.want)
			}
		})
	}
	// Overflow safety.
	if got := Norm([]float64{1e300, 1e300}); math.IsInf(got, 0) {
		t.Fatal("norm must not overflow")
	}
	// Underflow safety.
	if got := Norm([]float64{1e-300, 1e-300}); got == 0 {
		t.Fatal("norm must not underflow to zero")
	}
}

func TestAddScaledAndScaleVec(t *testing.T) {
	dst := []float64{1, 2}
	AddScaled(dst, 2, []float64{10, 20})
	if dst[0] != 21 || dst[1] != 42 {
		t.Fatalf("AddScaled = %v", dst)
	}
	ScaleVec(dst, 0.5)
	if dst[0] != 10.5 || dst[1] != 21 {
		t.Fatalf("ScaleVec = %v", dst)
	}
}

func TestNormalize(t *testing.T) {
	v := []float64{3, 4}
	n := Normalize(v)
	if !almostEqual(n, 5, 1e-12) {
		t.Fatalf("returned norm = %v", n)
	}
	if !almostEqual(Norm(v), 1, 1e-12) {
		t.Fatalf("normalized norm = %v", Norm(v))
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 {
		t.Fatal("zero vector norm must be 0")
	}
}

func TestVecIsFinite(t *testing.T) {
	if !VecIsFinite([]float64{1, 2}) {
		t.Fatal("finite vector")
	}
	if VecIsFinite([]float64{1, math.NaN()}) {
		t.Fatal("NaN must fail")
	}
	if VecIsFinite([]float64{math.Inf(1)}) {
		t.Fatal("Inf must fail")
	}
}

// Property: Cauchy–Schwarz |a·b| ≤ ‖a‖‖b‖.
func TestQuickCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		return math.Abs(Dot(a, b)) <= Norm(a)*Norm(b)*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
