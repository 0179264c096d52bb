package randproj

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
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
		{name: "tug of war", cfg: Config{Seed: 1, SketchLen: 8}},
		{name: "zero sketch len", cfg: Config{Seed: 1}, wantErr: true},
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

// TestTugOfWarValues: every entry is ±1 and the signs balance, in the first
// sign word of a row and in the second.
func TestTugOfWarValues(t *testing.T) {
	g := mustGen(t, Config{Seed: 3, SketchLen: 100})
	var plus, minus int
	for tIdx := int64(0); tIdx < 1000; tIdx++ {
		for k := 0; k < 100; k++ {
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

func TestRowAgreesWithAt(t *testing.T) {
	// A row of a word and six signs; RowInto takes a longer dst.
	g := mustGen(t, Config{Seed: 2, SketchLen: 70})
	into := make([]float64, g.SketchLen()+2)
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

// TestSignRowsPinned pins the projection rows to the bit: an FNV-64a digest
// of the little-endian bits of rows t = 1…2000 at seed 777, l = 100. Every
// monitor regenerates these rows on its own, so a change to the hash that
// draws them shows here first; ci.sh reruns this test under
// GODEBUG=cpu.fma=off.
func TestSignRowsPinned(t *testing.T) {
	g := mustGen(t, Config{Seed: 777, SketchLen: 100})
	h := fnv.New64a()
	row := make([]float64, g.SketchLen())
	var buf [8]byte
	for tt := int64(1); tt <= 2000; tt++ {
		g.RowInto(tt, row)
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "87c35e04f596c6a5"; got != want {
		t.Fatalf("row digest %s, want %s", got, want)
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
	cfg := Config{SketchLen: 64}
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
		t.Fatalf("E‖z‖² = %v, want ≈ ‖y‖² = %v", mean, yNorm2)
	}
}

// Property: every generated value is finite — exactly +1 or −1.
func TestQuickValuesFinite(t *testing.T) {
	f := func(seed uint64, tIdx int64, k uint8) bool {
		g, err := NewGenerator(Config{Seed: seed, SketchLen: 256})
		if err != nil {
			return false
		}
		v := g.At(tIdx, int(k))
		return v == 1 || v == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
