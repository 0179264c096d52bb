package vh

import (
	"math"
	"testing"

	"streampca/internal/randproj"
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
// sequence — unit steps with occasional gaps around n and past 3n, volumes
// that jump between unit and 1e12 magnitude — and after every update checks
// the storage invariants, the totals against a fresh sum (checkTotals),
// Count, EstimateMean, EstimateVariance, Sketch and PriorSketchInto against a
// brute-force pass over the exact window with rows regenerated from the
// generator, and a twin fed the same sequence through the passes Update's one
// pass replaces (checkTwin). Volumes are non-negative, as a monitor's are and
// as the documented totals bound assumes.
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
	// A magnitude cliff in the middle: the cliffFactor rebase.
	cliff := steady(header(64, 4, 0), 100, 10)
	cliff = append(cliff, 0, 0xe3)
	cliff = steady(cliff, 100, 10)
	cliff = append(cliff, 0, 0xe3)
	f.Add(steady(cliff, 100, 10))
	// The gap cases of TestExpiryWithTimeGaps: n−1+k, 3n+7+k, a negative start.
	f.Add(append(steady(header(5, 3, 200), 6, 9), 0x0e, 9, 0x1e, 9, 0x2e, 9, 0x0f, 9, 0x0d, 9))
	f.Add(steady(header(1, 0, 0), 4, 1))

	f.Fuzz(runFuzzBody)
}

func runFuzzBody(t *testing.T, data []byte) {
	{
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

		cfg := Config{WindowLen: n}
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
		var prior []float64
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

			// Brute force over the exact window.
			c := 0
			for i := len(ts) - 1; i >= 0 && ts[i] > ti-int64(n); i-- {
				c++
			}
			if h.Count() != int64(c) {
				t.Fatalf("t=%d: histogram holds %d elements, window %d", ti, h.Count(), c)
			}
			rel := totalsRelBound(n)
			// Both sides round in proportion to the mass they sum.
			mean, sk := suffixStats(gen, ts, xs, c)
			bound := 3 * rel * float64(c) * mean * rowMax / math.Sqrt(float64(max(l, 1)))
			if d := math.Abs(h.EstimateMean() - mean); d > rel*mean {
				t.Fatalf("t=%d: EstimateMean() = %v, window %v", ti, h.EstimateMean(), mean)
			}
			for k, got := range h.Sketch() {
				if d := math.Abs(got - sk[k]); d > bound {
					t.Fatalf("t=%d: Sketch()[%d] = %v, window %v: off by %.3g, bound %.3g", ti, k, got, sk[k], d, bound)
				}
			}
			var priorMean float64
			var priorSk []float64
			if c > 1 && gen != nil {
				priorMean, priorSk = suffixStats(gen, ts[:len(ts)-1], xs[:len(xs)-1], c-1)
			}
			var gotMean float64
			prior, gotMean = h.PriorSketchInto(prior)
			if d := math.Abs(gotMean - priorMean); d > rel*mean*float64(c) {
				t.Fatalf("t=%d: PriorSketchInto mean %v, window without the newest %v", ti, gotMean, priorMean)
			}
			for k, got := range prior {
				want := 0.0
				if priorSk != nil {
					want = priorSk[k]
				}
				if d := math.Abs(got - want); d > 2*bound {
					t.Fatalf("t=%d: PriorSketchInto[%d] = %v, window without the newest %v: off by %.3g, bound %.3g", ti, k, got, want, d, 2*bound)
				}
			}

			// The variance, with the oracle's slack for what neither side
			// can resolve below ulp·Σx².
			win := xs[len(xs)-c:]
			_, exact, _ := exactWindow(win, c)
			var sumSq float64
			for _, v := range win {
				sumSq += v * v
			}
			slack := 1e-12 * float64(c) * sumSq
			if est := h.EstimateVariance(); math.Abs(est-exact) > slack {
				t.Fatalf("t=%d: EstimateVariance() = %v, window %v", ti, est, exact)
			}
		}
	}
}
