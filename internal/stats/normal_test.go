package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	tests := []struct {
		x, want float64
	}{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{2.326347874040841, 0.99},
		{-8, 6.220960574271786e-16},
	}
	for _, tt := range tests {
		if got := NormalCDF(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Fatalf("CDF(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.99, 2.326347874040841},
		{0.025, -1.959963984540054},
		{1e-10, -6.361340902404056},
	}
	for _, tt := range tests {
		got, err := NormalQuantile(tt.p)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.p, err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Fatalf("Quantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestNormalQuantileErrors(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := NormalQuantile(p); !errors.Is(err, ErrProbRange) {
			t.Fatalf("Quantile(%v) must fail, got %v", p, err)
		}
	}
}

func TestUpperQuantile(t *testing.T) {
	got, err := UpperQuantile(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.326347874040841) > 1e-9 {
		t.Fatalf("UpperQuantile(0.01) = %v", got)
	}
	if _, err := UpperQuantile(1); !errors.Is(err, ErrProbRange) {
		t.Fatalf("alpha=1 must fail, got %v", err)
	}
}

// Property: quantile inverts the CDF across the full range.
func TestQuickQuantileInvertsCDF(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := math.Min(math.Max(r.Float64(), 1e-12), 1-1e-12)
		x, err := NormalQuantile(p)
		if err != nil {
			return false
		}
		return math.Abs(NormalCDF(x)-p) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the quantile function is monotone increasing.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p1 := 0.001 + 0.998*r.Float64()
		p2 := 0.001 + 0.998*r.Float64()
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		if p2-p1 < 1e-9 {
			return true
		}
		q1, err1 := NormalQuantile(p1)
		q2, err2 := NormalQuantile(p2)
		return err1 == nil && err2 == nil && q1 <= q2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
