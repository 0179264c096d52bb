package vh

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// checkStorage asserts the storage invariants of the window ring: newest is
// the slot of now and holds the newest element, the ring's live elements are
// Count() of them, and the walk visits them in strictly increasing time order
// inside the window.
func checkStorage(t testing.TB, h *Histogram) {
	t.Helper()
	n := int64(len(h.window))
	if want := int((h.now%n + n) % n); h.newest != want {
		t.Fatalf("t=%d: newest slot %d, want %d", h.now, h.newest, want)
	}
	if h.Count() > 0 && math.IsNaN(h.window[h.newest]) {
		t.Fatalf("t=%d: the newest element is not in the ring", h.now)
	}
	live := 0
	for _, x := range h.window {
		if !math.IsNaN(x) {
			live++
		}
	}
	if int64(live) != h.Count() {
		t.Fatalf("t=%d: %d live elements in the ring, Count() = %d", h.now, live, h.Count())
	}
	visited := 0
	last := h.now - n
	h.each(h.now, func(ti int64, _ float64) {
		if ti <= last {
			t.Fatalf("t=%d: element %d at time %d, not after %d", h.now, visited, ti, last)
		}
		last = ti
		visited++
	})
	if visited != live {
		t.Fatalf("t=%d: the walk visits %d elements, the ring holds %d", h.now, visited, live)
	}
}

// FuzzHistogramAgainstWindow drives one histogram with a decoded update
// sequence — unit steps with occasional gaps around n and past 3n, whole-byte
// volumes that jump between unit and 2⁴⁰ magnitude (capped at the largest the
// window takes) — and after every update checks the storage invariants, the
// totals, EstimateMean, Sketch and PriorSketchInto against fresh sums over
// the exact window with rows read off the generator (checkExact), and
// EstimateVariance against a two-pass variance. A decoded fraction or volume
// past the bound must be refused with ErrVolume and change nothing.
func FuzzHistogramAgainstWindow(f *testing.F) {
	header := func(n int, l, start byte) []byte {
		return []byte{byte(n - 1), byte((n - 1) >> 8), l, start}
	}
	steady := func(b []byte, steps int, x byte) []byte {
		for i := 0; i < steps; i++ {
			b = append(b, 0, x+byte(i%7))
		}
		return b
	}
	// The deployed point (n = 144).
	f.Add(steady(header(144, 8, 0), 3*144, 40))
	// A window of 2⁴⁰-magnitude volumes, then unit ones, twice.
	big := steady(header(64, 4, 0), 100, 10)
	big = append(big, 0, 0xe3)
	big = steady(big, 100, 10)
	big = append(big, 0, 0xe3)
	f.Add(steady(big, 100, 10))
	// Refused values among accepted ones: a fraction, then one past the bound.
	f.Add(steady(append(steady(header(300, 8, 0), 20, 3), 0, 0xc4, 0, 0xc5), 20, 3))
	// The gap cases of TestExpiryWithTimeGaps: n−1+k, 3n+7+k, a negative start.
	f.Add(append(steady(header(5, 3, 200), 6, 9), 0x0e, 9, 0x1e, 9, 0x2e, 9, 0x0f, 9, 0x0d, 9))
	f.Add(steady(header(1, 0, 0), 4, 1))

	f.Fuzz(runFuzzBody)
}

func runFuzzBody(t *testing.T, data []byte) {
	if len(data) < 4 {
		return
	}
	n := 1 + (int(data[0])|int(data[1])<<8)%300
	l := int(data[2] % 9)
	ti := -4 * int64(data[3])
	data = data[4:]
	if len(data) > 2*1500 {
		data = data[:2*1500]
	}

	e := newExactRun(t, n, l)
	e.ti = ti
	// largest is the largest volume the window takes: |x|·n < 2⁵³.
	largest := math.Floor((1<<53 - 1) / float64(n))
	scale := 1.0
	for ; len(data) >= 2; data = data[2:] {
		// Low nibble picks the step, high nibble widens it.
		step, wide := int64(data[0]&0x0f), int64(data[0]>>4)
		var gap int64
		switch {
		case step < 12:
			gap = 1
		case step == 12:
			gap = 2
		case step == 13:
			gap = 1 + wide
		case step == 14:
			gap = max(1, int64(n)-1+wide)
		default:
			gap = 3*int64(n) + 7 + wide
		}
		// The top three bits: 111 flips the magnitude regime, 110 makes the
		// low five a refused value, odd ones a fraction and even ones past
		// the bound. Zero stays zero.
		v := float64(data[1] & 0x1f)
		switch data[1] & 0xe0 {
		case 0xe0:
			if scale == 1 {
				scale = 1 << 40
			} else {
				scale = 1
			}
		case 0xc0:
			bad := largest + 1 + v
			if int(v)%2 == 1 {
				bad = v + 0.5
			}
			before := stateOf(e.h)
			if err := e.h.Update(e.ti+gap, bad); !errors.Is(err, ErrVolume) {
				t.Fatalf("t=%d: Update(%v) = %v, want ErrVolume", e.ti+gap, bad, err)
			}
			if !slices.Equal(stateOf(e.h), before) {
				t.Fatalf("t=%d: the refused volume %v changed the histogram", e.ti+gap, bad)
			}
			continue
		}
		e.step(t, gap, min(scale*v, largest))
		checkStorage(t, e.h)

		// The variance, with the oracle's slack for what neither side can
		// resolve below ulp·Σx².
		_, exact, c := exactWindow(e.w.xs, n)
		var sumSq float64
		for _, x := range e.w.xs {
			sumSq += x * x
		}
		if est := e.h.EstimateVariance(); math.Abs(est-exact) > 1e-12*float64(c)*sumSq {
			t.Fatalf("t=%d: EstimateVariance() = %v, window %v", e.ti, est, exact)
		}
	}
}
