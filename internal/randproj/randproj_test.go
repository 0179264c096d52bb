package randproj

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"streampca/internal/mat"
)

func mustGen(t *testing.T, cfg Config) *Generator {
	t.Helper()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGeneratorValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "default gaussian", cfg: Config{Seed: 1, SketchLen: 8}},
		{name: "tug of war", cfg: Config{Seed: 1, SketchLen: 8, Dist: TugOfWar}},
		{name: "sparse s=3", cfg: Config{Seed: 1, SketchLen: 8, Dist: Sparse, SparseS: 3}},
		{name: "very sparse", cfg: Config{Seed: 1, SketchLen: 8, Dist: VerySparse, WindowLen: 100}},
		{name: "zero sketch len", cfg: Config{Seed: 1}, wantErr: true},
		{name: "sparse s=0", cfg: Config{Seed: 1, SketchLen: 8, Dist: Sparse}, wantErr: true},
		{name: "very sparse no window", cfg: Config{Seed: 1, SketchLen: 8, Dist: VerySparse}, wantErr: true},
		{name: "unknown dist", cfg: Config{Seed: 1, SketchLen: 8, Dist: Distribution(99)}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewGenerator(tt.cfg)
			if tt.wantErr {
				if !errors.Is(err, ErrConfig) {
					t.Fatalf("want ErrConfig, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

func TestDistributionString(t *testing.T) {
	for d, want := range map[Distribution]string{
		Gaussian:          "gaussian",
		TugOfWar:          "tug-of-war",
		Sparse:            "sparse",
		VerySparse:        "very-sparse",
		Distribution(123): "unknown",
	} {
		if got := d.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(d), got, want)
		}
	}
}

func TestGeneratorDeterministicAndSeedSensitive(t *testing.T) {
	g1 := mustGen(t, Config{Seed: 7, SketchLen: 16})
	g2 := mustGen(t, Config{Seed: 7, SketchLen: 16})
	g3 := mustGen(t, Config{Seed: 8, SketchLen: 16})
	var differ bool
	for tIdx := int64(0); tIdx < 50; tIdx++ {
		for k := 0; k < 16; k++ {
			a, b, c := g1.At(tIdx, k), g2.At(tIdx, k), g3.At(tIdx, k)
			if a != b {
				t.Fatalf("same seed diverged at (%d,%d): %v vs %v", tIdx, k, a, b)
			}
			if a != c {
				differ = true
			}
		}
	}
	if !differ {
		t.Fatal("different seeds must produce different streams")
	}
}

func TestTugOfWarValues(t *testing.T) {
	g := mustGen(t, Config{Seed: 3, SketchLen: 4, Dist: TugOfWar})
	var plus, minus int
	for tIdx := int64(0); tIdx < 1000; tIdx++ {
		for k := 0; k < 4; k++ {
			switch g.At(tIdx, k) {
			case 1:
				plus++
			case -1:
				minus++
			default:
				t.Fatalf("tug-of-war produced %v", g.At(tIdx, k))
			}
		}
	}
	total := plus + minus
	ratio := float64(plus) / float64(total)
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("sign balance %v, want ≈0.5", ratio)
	}
}

func TestSparseSupportAndDensity(t *testing.T) {
	s := 3
	g := mustGen(t, Config{Seed: 5, SketchLen: 8, Dist: Sparse, SparseS: s})
	want := math.Sqrt(float64(s))
	var nonzero, total int
	for tIdx := int64(0); tIdx < 2000; tIdx++ {
		for k := 0; k < 8; k++ {
			v := g.At(tIdx, k)
			total++
			switch {
			case v == 0:
			case math.Abs(math.Abs(v)-want) < 1e-12:
				nonzero++
			default:
				t.Fatalf("sparse produced %v, want 0 or ±√%d", v, s)
			}
		}
	}
	density := float64(nonzero) / float64(total)
	if math.Abs(density-1.0/float64(s)) > 0.03 {
		t.Fatalf("density %v, want ≈%v", density, 1.0/float64(s))
	}
}

func TestVerySparseDensity(t *testing.T) {
	n := 10000
	g := mustGen(t, Config{Seed: 5, SketchLen: 8, Dist: VerySparse, WindowLen: n})
	var nonzero, total int
	for tIdx := int64(0); tIdx < 5000; tIdx++ {
		for k := 0; k < 8; k++ {
			total++
			if g.At(tIdx, k) != 0 {
				nonzero++
			}
		}
	}
	density := float64(nonzero) / float64(total)
	want := 1 / math.Sqrt(float64(n))
	if density < want/3 || density > want*3 {
		t.Fatalf("very sparse density %v, want ≈%v", density, want)
	}
}

func TestGaussianMoments(t *testing.T) {
	g := mustGen(t, Config{Seed: 11, SketchLen: 32})
	var sum, sumSq float64
	var count int
	for tIdx := int64(0); tIdx < 2000; tIdx++ {
		for k := 0; k < 32; k++ {
			v := g.At(tIdx, k)
			sum += v
			sumSq += v * v
			count++
		}
	}
	mean := sum / float64(count)
	variance := sumSq/float64(count) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("gaussian mean %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("gaussian variance %v, want ≈1", variance)
	}
}

func TestRowAgreesWithAt(t *testing.T) {
	g := mustGen(t, Config{Seed: 2, SketchLen: 6})
	into := make([]float64, g.SketchLen()+2) // RowInto takes a longer dst
	for _, tt := range []int64{0, 42, -3} {
		g.RowInto(tt, into)
		for name, row := range map[string][]float64{"Row": g.Row(tt), "RowInto": into[:g.SketchLen()]} {
			for k, v := range row {
				if v != g.At(tt, k) {
					t.Fatalf("%s mismatch at t=%d k=%d", name, tt, k)
				}
			}
		}
	}
}

// TestRowIntoConcurrent derives rows from several goroutines at once (run
// with -race); every reader must see the correct row.
func TestRowIntoConcurrent(t *testing.T) {
	g := mustGen(t, Config{Seed: 11, SketchLen: 16})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]float64, g.SketchLen())
			for i := 0; i < 200; i++ {
				tt := int64((w + i) % 16)
				g.RowInto(tt, dst)
				for k, v := range dst {
					if want := g.At(tt, k); v != want {
						t.Errorf("t=%d k=%d: %v != %v", tt, k, v, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// Lemma 2/3 property: E(‖z‖²) = ‖y‖², checked empirically over seeds.
func TestNormPreservationInExpectation(t *testing.T) {
	for _, dist := range []Distribution{Gaussian, TugOfWar, Sparse} {
		cfg := Config{SketchLen: 64, Dist: dist, SparseS: 3}
		n := 50
		y := make([]float64, n)
		rng := rand.New(rand.NewSource(4))
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		yNorm2 := mat.Dot(y, y)

		var acc float64
		trials := 200
		for s := 0; s < trials; s++ {
			cfg.Seed = uint64(s + 1)
			g, err := NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// ‖z‖² for z = (1/√l)·Rᵀ·y, the projection of eq. 24.
			for k := 0; k < cfg.SketchLen; k++ {
				var zk float64
				for i, yv := range y {
					zk += g.At(int64(i), k) * yv
				}
				acc += zk * zk / float64(cfg.SketchLen)
			}
		}
		mean := acc / float64(trials)
		if math.Abs(mean-yNorm2)/yNorm2 > 0.15 {
			t.Fatalf("%v: E‖z‖² = %v, want ≈ ‖y‖² = %v", dist, mean, yNorm2)
		}
	}
}

// Property: every generated value is finite for all families.
func TestQuickValuesFinite(t *testing.T) {
	f := func(seed uint64, tIdx int64, k uint8) bool {
		for _, cfg := range []Config{
			{Seed: seed, SketchLen: 256},
			{Seed: seed, SketchLen: 256, Dist: TugOfWar},
			{Seed: seed, SketchLen: 256, Dist: Sparse, SparseS: 2},
			{Seed: seed, SketchLen: 256, Dist: VerySparse, WindowLen: 50},
		} {
			g, err := NewGenerator(cfg)
			if err != nil {
				return false
			}
			v := g.At(tIdx, int(k))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
