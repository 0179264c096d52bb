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

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 4); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil generator: %v", err)
	}
	if _, err := NewRing(mustGen(t, Config{Seed: 1, SketchLen: 2}), 0); !errors.Is(err, ErrConfig) {
		t.Fatalf("zero window: %v", err)
	}
}
