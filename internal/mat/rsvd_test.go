package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// lowRankPlusNoise builds an n×m matrix with a planted rank-r spectrum well
// above the noise floor.
func lowRankPlusNoise(rng *rand.Rand, n, m, r int, noise float64) *Matrix {
	out := NewMatrix(n, m)
	for k := 0; k < r; k++ {
		u := make([]float64, n)
		v := make([]float64, m)
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		Normalize(u)
		Normalize(v)
		s := 100.0 / float64(k+1)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				out.Set(i, j, out.At(i, j)+s*u[i]*v[j])
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			out.Set(i, j, out.At(i, j)+noise*rng.NormFloat64())
		}
	}
	return out
}

func TestRandomizedSVDMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n, m, r = 60, 40, 5
	a := lowRankPlusNoise(rng, n, m, r, 1e-3)
	exact, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := RandomizedSVD(a, r, 10, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(approx.Values) != r+10 {
		t.Fatalf("got %d values, want %d", len(approx.Values), r+10)
	}
	for k := 0; k < r; k++ {
		rel := math.Abs(approx.Values[k]-exact.Values[k]) / exact.Values[k]
		if rel > 1e-6 {
			t.Fatalf("singular value %d: %v vs exact %v (rel %v)", k, approx.Values[k], exact.Values[k], rel)
		}
		// Right singular vectors match up to sign.
		dot := 0.0
		for i := 0; i < m; i++ {
			dot += approx.V.At(i, k) * exact.V.At(i, k)
		}
		if math.Abs(math.Abs(dot)-1) > 1e-6 {
			t.Fatalf("right vector %d: |<v,v*>| = %v", k, math.Abs(dot))
		}
	}
	// The returned V must have orthonormal columns.
	g := approx.V.Gram()
	for i := 0; i < g.Rows(); i++ {
		for j := 0; j < g.Cols(); j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(g.At(i, j)-want) > 1e-8 {
				t.Fatalf("VᵀV[%d,%d] = %v", i, j, g.At(i, j))
			}
		}
	}
}

func TestRandomizedSVDDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := lowRankPlusNoise(rng, 50, 30, 4, 0.1)
	ref, err := RandomizedSVD(a, 6, 4, 2, 123)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RandomizedSVD(a, 6, 4, 2, 123)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ref.Values {
		if got.Values[k] != ref.Values[k] {
			t.Fatalf("value %d differs bitwise between runs (%v vs %v)", k, got.Values[k], ref.Values[k])
		}
	}
	if !got.V.Equal(ref.V, 0) {
		t.Fatal("V differs bitwise between runs")
	}
	// A different seed must change the sample (sanity that seeding works).
	other, err := RandomizedSVD(a, 6, 4, 0, 124)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for k := range ref.Values {
		if other.Values[k] != ref.Values[k] {
			same = false
		}
	}
	if same {
		t.Fatal("seed change left all singular values bitwise identical")
	}
}

func TestRandomizedSVDWideAndTall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][2]int{{20, 64}, {64, 20}, {8, 8}} {
		a := lowRankPlusNoise(rng, dims[0], dims[1], 3, 1e-4)
		got, err := RandomizedSVD(a, 3, 5, 1, 1)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		p := 8
		if lim := dims[0]; p > lim {
			p = lim
		}
		if lim := dims[1]; p > lim {
			p = lim
		}
		if len(got.Values) != p {
			t.Fatalf("%v: %d values, want %d", dims, len(got.Values), p)
		}
		exact, err := ComputeSVD(a)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got.Values[0]-exact.Values[0]) / exact.Values[0]; rel > 1e-6 {
			t.Fatalf("%v: top value rel err %v", dims, rel)
		}
	}
}

func TestRandomizedSVDErrors(t *testing.T) {
	a := NewMatrix(4, 4)
	a.Set(0, 0, 1)
	if _, err := RandomizedSVD(a, -1, 2, 0, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("negative rank: %v", err)
	}
	if _, err := RandomizedSVD(a, 0, 0, 0, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("zero sample: %v", err)
	}
	bad := NewMatrix(2, 2)
	bad.Set(0, 0, math.NaN())
	if _, err := RandomizedSVD(bad, 1, 1, 0, 1); !errors.Is(err, ErrNotFinite) {
		t.Fatalf("non-finite: %v", err)
	}
}
