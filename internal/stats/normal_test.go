package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// NormalCDF returns P(Z ≤ x) for a standard normal variable Z: the reference
// the quantile is checked against.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

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

// quantileProbes returns 2²⁰ probabilities p = k·2⁻⁵³, 0 < k < 2⁵³: half
// uniform over (0, 1), half with k shifted right by 0…52 bits, so the tails
// are sampled down to p = 2⁻⁵³.
func quantileProbes() []float64 {
	rng := rand.New(rand.NewSource(53))
	ps := make([]float64, 0, 1<<20)
	for len(ps) < cap(ps) {
		k := uint64(rng.Int63()) >> 10
		if len(ps)%2 == 1 {
			k >>= uint(rng.Intn(53))
		}
		if k != 0 {
			ps = append(ps, float64(k)/(1<<53))
		}
	}
	return ps
}

// TestNormalQuantileSymmetricAndMonotone: z(1 − p) = −z(p) to the bit (1 − p
// is exact for p = k·2⁻⁵³), and z is non-decreasing in p.
func TestNormalQuantileSymmetricAndMonotone(t *testing.T) {
	ps := quantileProbes()
	sort.Float64s(ps)
	prev := math.Inf(-1)
	for _, p := range ps {
		z, err := NormalQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		if z < prev {
			t.Fatalf("z(%v) = %v below the quantile of a smaller p, %v", p, z, prev)
		}
		prev = z
		if mirror, _ := NormalQuantile(1 - p); mirror != -z {
			t.Fatalf("z(1 − %v) = %v, want −z(p) = %v", p, mirror, -z)
		}
	}
}

// TestNormalQuantileNearMedian holds the quantile to a few ulps, relative,
// where it is nearly linear: z(½ + q) = s + s³/6 + 7s⁵/120 + 127s⁷/5040 + …
// with s = √(2π)·q, whose remainder is below 1e-20 relative for |q| ≤ 1e-3.
func TestNormalQuantileNearMedian(t *testing.T) {
	for _, q := range []float64{1e-15, 3e-12, 1e-9, 1.8e-7, 2.5e-6, 1e-4, 1e-3} {
		for _, q := range []float64{q, -q} {
			p := 0.5 + q
			s := math.Sqrt(2*math.Pi) * (p - 0.5)
			s2 := s * s
			want := s * (1 + s2*(1.0/6+s2*(7.0/120+s2*127.0/5040)))
			got, err := NormalQuantile(p)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-15 {
				t.Fatalf("z(%v) = %v, want %v (relative error %.2g)", p, got, want, rel)
			}
		}
	}
}

// TestNormalQuantileLowerTailRoundTrip: Φ(z_p) returns p to 1e-13 relative
// from p = 1e-17 to 0.02, where erfc of a positive argument is accurate.
func TestNormalQuantileLowerTailRoundTrip(t *testing.T) {
	for e := -17.0; e <= math.Log10(0.02); e += 1.0 / 64 {
		p := math.Pow(10, e)
		z, err := NormalQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(NormalCDF(z)-p) / p; rel > 1e-13 {
			t.Fatalf("Φ(z(%v)) = %v: relative error %.2g", p, NormalCDF(z), rel)
		}
	}
}

// BenchmarkNormalQuantile draws over a fixed stream of 1 024 probabilities
// p = k·2⁻⁵³, the distribution a Gaussian projection row draws from.
func BenchmarkNormalQuantile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var ps [1024]float64
	for i := range ps {
		ps[i] = float64(uint64(rng.Int63())>>10+1) / (1 << 53)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantileSink, _ = NormalQuantile(ps[i%len(ps)])
	}
}

var quantileSink float64
