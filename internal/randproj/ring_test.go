package randproj

import (
	"errors"
	"math"
	"testing"
)

// TestRingRowsMatchGenerator reads intervals in and out of order: whatever
// the slot holds, Row(t) is the generator's row t.
func TestRingRowsMatchGenerator(t *testing.T) {
	const n, l = 4, 6
	g := mustGen(t, Config{Seed: 3, SketchLen: l})
	r, err := NewRing(g, n)
	if err != nil {
		t.Fatal(err)
	}
	if r.WindowLen() != n || r.SketchLen() != l {
		t.Fatalf("ring reports window %d, sketch length %d", r.WindowLen(), r.SketchLen())
	}
	check := func(ti int64) {
		t.Helper()
		got, want := r.Row(ti), g.Row(ti)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("Row(%d)[%d] = %v, generator says %v", ti, k, got[k], want[k])
			}
		}
	}
	// 7, 2 and -3 share a slot (n+1 = 5).
	for _, ti := range []int64{0, 1, 2, 7, 2, 7, -3, 11, 3, 2} {
		check(ti)
	}
	// An older interval must not evict the newer one from the slot.
	if r.tags[r.slot(7)] != 7 {
		t.Fatalf("slot of 7 holds %d after reading 2", r.tags[r.slot(7)])
	}
	// The ends of the range: MinInt64 is (next to) the tag of an empty slot.
	check(math.MinInt64)
	check(math.MaxInt64)
	check(math.MinInt64)
}

// TestRingKeepsSignWordsAndTwoRows: the ring stores ⌈l/64⌉ sign words per
// slot, and a row it returns stays valid while one other row is read — the
// entering and the leaving row of a histogram's slide.
func TestRingKeepsSignWordsAndTwoRows(t *testing.T) {
	const n, l = 144, 100
	g := mustGen(t, Config{Seed: 9, SketchLen: l})
	r, err := NewRing(g, n)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(r.signs), (n+1)*2; got != want {
		t.Fatalf("ring keeps %d words, want %d", got, want)
	}
	for ti := int64(n + 1); ti < 3*n; ti++ {
		in := r.Row(ti)
		out := r.Row(ti - n)
		for name, c := range map[string]struct {
			row []float64
			t   int64
		}{"entering": {in, ti}, "leaving": {out, ti - n}} {
			for k, v := range g.Row(c.t) {
				if c.row[k] != v {
					t.Fatalf("t=%d: %s row %d [%d] = %v, generator says %v", ti, name, c.t, k, c.row[k], v)
				}
			}
		}
	}
}

// TestRingKeepsTheRowReadLast: a hit counts as a read, so the row a hit
// returned survives the next miss. Every histogram of a monitor reads the one
// ring, and one that merged instead of sliding reads rows in between the
// entering row's expansion and another histogram's slide: Row(t), Row(s),
// then a slide's Row(t) (hit) and Row(t−n) (miss).
func TestRingKeepsTheRowReadLast(t *testing.T) {
	const n, l = 8, 70
	g := mustGen(t, Config{Seed: 5, SketchLen: l})
	r, err := NewRing(g, n)
	if err != nil {
		t.Fatal(err)
	}
	const now = 3 * n
	r.Row(now)
	r.Row(now - 2)
	in := r.Row(now)
	out := r.Row(now - n)
	for name, c := range map[string]struct {
		row []float64
		t   int64
	}{"entering": {in, now}, "leaving": {out, now - n}} {
		for k, v := range g.Row(c.t) {
			if c.row[k] != v {
				t.Fatalf("%s row %d [%d] = %v, generator says %v", name, c.t, k, c.row[k], v)
			}
		}
	}
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 4); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil generator: %v", err)
	}
	if _, err := NewRing(mustGen(t, Config{Seed: 1, SketchLen: 2}), 0); !errors.Is(err, ErrConfig) {
		t.Fatalf("zero window: %v", err)
	}
}
