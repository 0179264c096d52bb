package randproj

import (
	"sync"
	"testing"
)

func newTestGen(t testing.TB, cfg Config) *Generator {
	t.Helper()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRowCacheMatchesAt: cached rows must equal entry-wise derivation, on
// both the miss and hit path, and Row must hand out independent copies.
func TestRowCacheMatchesAt(t *testing.T) {
	g := newTestGen(t, Config{Seed: 5, SketchLen: 32})
	for pass := 0; pass < 2; pass++ { // pass 0 misses, pass 1 hits
		for tt := int64(0); tt < 20; tt++ {
			row := g.Row(tt)
			for k, v := range row {
				if want := g.At(tt, k); v != want {
					t.Fatalf("pass %d t=%d k=%d: %v != %v", pass, tt, k, want, v)
				}
			}
		}
	}
	if len(g.rows) != 20 {
		t.Fatalf("cache holds %d rows after two passes over 20, want 20", len(g.rows))
	}
	// Mutating a returned row must not poison the cache.
	row := g.Row(3)
	row[0] += 1e9
	if again := g.Row(3); again[0] == row[0] {
		t.Fatal("cache entry aliased into caller's slice")
	}
}

// TestRowCacheEviction: capacity bounds the cache; evicted rows re-derive
// correctly.
func TestRowCacheEviction(t *testing.T) {
	g := newTestGen(t, Config{Seed: 5, SketchLen: 8, RowCache: 4})
	for tt := int64(0); tt < 10; tt++ {
		g.Row(tt)
	}
	if g.lru.Len() != 4 || len(g.rows) != 4 {
		t.Fatalf("cache holds %d/%d entries, want 4", g.lru.Len(), len(g.rows))
	}
	// t=0 was evicted long ago; it must still derive correctly (a new miss).
	if _, ok := g.rows[0]; ok {
		t.Fatal("row 0 should have been evicted")
	}
	row := g.Row(0)
	for k, v := range row {
		if want := g.At(0, k); v != want {
			t.Fatalf("evicted row k=%d: %v != %v", k, want, v)
		}
	}
	if _, ok := g.rows[0]; !ok || len(g.rows) != 4 {
		t.Fatalf("re-derived row not re-inserted within capacity (%d rows)", len(g.rows))
	}
}

// TestRowCacheDisabled: RowCache < 0 turns the cache off entirely.
func TestRowCacheDisabled(t *testing.T) {
	g := newTestGen(t, Config{Seed: 5, SketchLen: 8, RowCache: -1})
	for i := 0; i < 5; i++ {
		row := g.Row(7)
		for k, v := range row {
			if want := g.At(7, k); v != want {
				t.Fatalf("k=%d: %v != %v", k, want, v)
			}
		}
	}
	if len(g.rows) != 0 {
		t.Fatalf("disabled cache holds %d rows", len(g.rows))
	}
}

// TestRowIntoConcurrent hammers the cache from several goroutines (run with
// -race); every reader must see the correct row.
func TestRowIntoConcurrent(t *testing.T) {
	g := newTestGen(t, Config{Seed: 11, SketchLen: 16, RowCache: 8})
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
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
						errCh <- &rowMismatch{tt, k}
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

type rowMismatch struct {
	t int64
	k int
}

func (e *rowMismatch) Error() string { return "row mismatch" }

// BenchmarkRowHit measures the cache hit path: repeated requests for rows
// already resident (the monitor-update pattern, where every flow shares the
// interval's row).
func BenchmarkRowHit(b *testing.B) {
	g := newTestGen(b, Config{Seed: 5, SketchLen: 100})
	dst := make([]float64, g.SketchLen())
	g.RowInto(1, dst) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RowInto(1, dst)
	}
}

// BenchmarkRowMiss measures the uncached derivation for contrast.
func BenchmarkRowMiss(b *testing.B) {
	g := newTestGen(b, Config{Seed: 5, SketchLen: 100, RowCache: -1})
	dst := make([]float64, g.SketchLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RowInto(int64(i), dst)
	}
}
