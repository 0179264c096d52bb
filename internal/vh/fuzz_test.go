package vh

import (
	"math"
	"testing"

	"streampca/internal/randproj"
)

// checkStorage asserts the storage invariants of the bucket list: timestamps
// strictly increasing, Σ count = Count(), a slab row for exactly the
// non-singleton buckets, and every slab row either owned by one bucket or on
// the free list, never both and never neither.
func checkStorage(t testing.TB, h *Histogram) {
	t.Helper()
	live := h.store[h.head:]
	slots := 0
	if h.sketchL > 0 {
		slots = len(h.slab) / (2 * h.sketchL)
	}
	owner := make([]int, slots) // 0 unowned, 1 a bucket, 2 the free list
	claim := func(slot int32, who int) {
		t.Helper()
		if slot < 0 || int(slot) >= slots {
			t.Fatalf("t=%d: slab row %d out of range [0, %d)", h.now, slot, slots)
		}
		if owner[slot] != 0 {
			t.Fatalf("t=%d: slab row %d has two owners (%d and %d)", h.now, slot, owner[slot], who)
		}
		owner[slot] = who
	}
	var count int64
	for i, b := range live {
		if i > 0 && b.Timestamp <= live[i-1].Timestamp {
			t.Fatalf("t=%d: bucket %d timestamp %d not after %d", h.now, i, b.Timestamp, live[i-1].Timestamp)
		}
		if b.Count < 1 {
			t.Fatalf("t=%d: bucket %d summarises %d elements", h.now, i, b.Count)
		}
		count += b.Count
		if wantRow := h.sketchL > 0 && b.Count > 1; wantRow != (b.slot != noSlot) {
			t.Fatalf("t=%d: bucket %d of %d elements has slab row %d", h.now, i, b.Count, b.slot)
		}
		if b.slot != noSlot {
			claim(b.slot, 1)
		}
	}
	if count != h.Count() {
		t.Fatalf("t=%d: Count() = %d, buckets sum to %d", h.now, h.Count(), count)
	}
	for _, s := range h.free {
		claim(s, 2)
	}
	for s, who := range owner {
		if who == 0 {
			t.Fatalf("t=%d: slab row %d leaked: no bucket owns it and it is not free", h.now, s)
		}
	}
}

// FuzzHistogramAgainstWindow drives one histogram with a decoded update
// sequence — unit steps with occasional gaps around n and past 3n, volumes
// that jump between unit and 1e12 magnitude — and after every update checks
// the storage invariants, the totals against the bucket list (checkTotals),
// Count/EstimateMean/Sketch against a brute-force pass over the covered
// suffix with rows regenerated from the generator, Lemma 1 against the
// exact window, and a twin fed the same sequence through the passes Update's
// one pass replaces (checkTwin). Volumes are non-negative, as a monitor's are
// and as the documented totals bound assumes.
func FuzzHistogramAgainstWindow(f *testing.F) {
	header := func(n int, eps, l, start byte) []byte {
		return []byte{byte(n - 1), byte((n - 1) >> 8), eps, l, start}
	}
	steady := func(b []byte, steps int, x byte) []byte {
		for i := 0; i < steps; i++ {
			b = append(b, 0, x+byte(i%7))
		}
		return b
	}
	// The deployed point (n = 144, ε = 0.02: every bucket a singleton).
	f.Add(steady(header(144, 1, 8, 0), 3*144, 40))
	// A merging point with a magnitude cliff in the middle.
	cliff := steady(header(64, 7, 4, 0), 100, 10)
	cliff = append(cliff, 0, 0xe3)
	cliff = steady(cliff, 100, 10)
	cliff = append(cliff, 0, 0xe3)
	f.Add(steady(cliff, 100, 10))
	// The gap cases of TestExpiryWithTimeGaps: n−1+k, 3n+7+k, a negative start.
	f.Add(append(steady(header(5, 0, 3, 200), 6, 9), 0x0e, 9, 0x1e, 9, 0x2e, 9, 0x0f, 9, 0x0d, 9))
	f.Add(steady(header(1, 3, 0, 0), 4, 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := 1 + (int(data[0])|int(data[1])<<8)%300
		eps := []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.9}[data[2]%8]
		l := int(data[3] % 9)
		ti := -4 * int64(data[4])
		data = data[5:]
		if len(data) > 2*1500 {
			data = data[:2*1500]
		}

		cfg := Config{WindowLen: n, Epsilon: eps}
		var gen *randproj.Generator
		if l > 0 {
			gen, cfg.Gen = newGenRing(t, 7, l, n)
		}
		h := mustHist(t, cfg)
		if l > 0 {
			cfg.Gen = newRing(t, 7, l, n)
		}
		twin := mustHist(t, cfg)

		var ts []int64
		var xs []float64
		scale := 1.0
		for ; len(data) >= 2; data = data[2:] {
			// Low nibble picks the step, high nibble widens it.
			step, wide := int64(data[0]&0x0f), int64(data[0]>>4)
			switch {
			case step < 12:
				ti++
			case step == 12:
				ti += 2
			case step == 13:
				ti += 1 + wide
			case step == 14:
				ti += max(1, int64(n)-1+wide)
			default:
				ti += 3*int64(n) + 7 + wide
			}
			// Top three bits set flips the magnitude regime; zero stays zero.
			if data[1]&0xe0 == 0xe0 {
				if scale == 1 {
					scale = 1e12
				} else {
					scale = 1
				}
			}
			x := scale * float64(data[1]&0x1f) / 8
			ts, xs = append(ts, ti), append(xs, x)

			updateChecked(t, h, ti, x)
			checkStorage(t, h)
			checkTwin(t, h, twin, ti, x)

			// Brute force over the covered suffix.
			c := int(h.Count())
			inWindow := 0
			for i := len(ts) - 1; i >= 0 && ts[i] > ti-int64(n); i-- {
				inWindow++
			}
			if c < 1 || c > inWindow {
				t.Fatalf("t=%d: histogram covers %d elements, window holds %d", ti, c, inWindow)
			}
			rel := totalsRelBound(n)
			mean, sk := suffixStats(gen, ts, xs, c)
			if d := math.Abs(h.EstimateMean() - mean); d > rel*mean {
				t.Fatalf("t=%d: EstimateMean() = %v, covered suffix %v", ti, h.EstimateMean(), mean)
			}
			for k, got := range h.Sketch() {
				// Both sides round in proportion to the mass they sum.
				bound := 3 * rel * float64(c) * mean * rowMax / math.Sqrt(float64(l))
				if d := math.Abs(got - sk[k]); d > bound {
					t.Fatalf("t=%d: Sketch()[%d] = %v, covered suffix %v: off by %.3g, bound %.3g", ti, k, got, sk[k], d, bound)
				}
			}

			// Lemma 1 against the exact window, with the oracle's slack for
			// what neither side can resolve below ulp·Σx².
			win := xs[len(xs)-inWindow:]
			_, exact, _ := exactWindow(win, inWindow)
			var sumSq float64
			for _, v := range win {
				sumSq += v * v
			}
			slack := 1e-12 * float64(inWindow) * sumSq
			if est := h.EstimateVariance(); est > exact+slack || est < (1-eps)*exact-slack {
				t.Fatalf("t=%d: V̂ = %v outside [(1−ε)V, V] for V = %v, ε = %v", ti, est, exact, eps)
			}
		}
	})
}
