package vh

import (
	"math"
	"math/rand"
	"testing"

	"streampca/internal/randproj"
)

// checkStorage asserts the storage invariants of the window ring and the
// merged list: newest is the slot of now and holds a live singleton, singles
// counts the ring's live elements, every merged bucket summarises at least
// two elements, spans times in the window before the newest element and after
// the merged bucket before it, and shares none of them with a singleton; the
// buckets walk in
// strictly increasing time order and Σ count = Count(); and every slab row is
// either owned by one merged bucket or on the free list, never both and never
// neither, with a row for every merged bucket of a sketching histogram.
func checkStorage(t testing.TB, h *Histogram) {
	t.Helper()
	n := int64(len(h.window))
	if want := int((h.now%n + n) % n); h.newest != want {
		t.Fatalf("t=%d: newest slot %d, want %d", h.now, h.newest, want)
	}
	if h.NumBuckets() > 0 && math.IsNaN(h.window[h.newest]) {
		t.Fatalf("t=%d: the newest element is not a live singleton", h.now)
	}
	singles := 0
	for _, x := range h.window {
		if !math.IsNaN(x) {
			singles++
		}
	}
	if singles != h.singles {
		t.Fatalf("t=%d: %d live singletons in the ring, singles = %d", h.now, singles, h.singles)
	}
	slots := 0
	if h.sketchL > 0 {
		slots = len(h.slab) / (2 * h.sketchL)
	}
	owner := make([]int, slots) // 0 unowned, 1 a bucket, 2 the free list
	claim := func(slot int32, who int) {
		if slot < 0 || int(slot) >= slots {
			t.Fatalf("t=%d: slab row %d out of range [0, %d)", h.now, slot, slots)
		}
		if owner[slot] != 0 {
			t.Fatalf("t=%d: slab row %d has two owners (%d and %d)", h.now, slot, owner[slot], who)
		}
		owner[slot] = who
	}
	for i, b := range h.merged {
		if b.Count < 2 {
			t.Fatalf("t=%d: merged bucket %d summarises %d elements", h.now, i, b.Count)
		}
		if b.Timestamp <= h.now-n || b.Timestamp >= h.now {
			t.Fatalf("t=%d: merged bucket %d at time %d, outside [now−n+1, now)", h.now, i, b.Timestamp)
		}
		if i > 0 && b.Timestamp <= h.merged[i-1].Timestamp {
			t.Fatalf("t=%d: merged bucket %d timestamp %d not after %d", h.now, i, b.Timestamp, h.merged[i-1].Timestamp)
		}
		if b.Last < b.Timestamp+b.Count-1 || b.Last >= h.now {
			t.Fatalf("t=%d: merged bucket %d of %d elements spans times [%d, %d]", h.now, i, b.Count, b.Timestamp, b.Last)
		}
		if i > 0 && b.Timestamp <= h.merged[i-1].Last {
			t.Fatalf("t=%d: merged bucket %d starts at %d, inside the one before it", h.now, i, b.Timestamp)
		}
		for ti := b.Timestamp; ti <= b.Last; ti++ {
			if x := h.window[h.slotAfter(h.newest, ti-h.now)]; !math.IsNaN(x) {
				t.Fatalf("t=%d: time %d is both in merged bucket %d and singleton %v", h.now, ti, i, x)
			}
		}
		if wantRow := h.sketchL > 0; wantRow != (b.slot != noSlot) {
			t.Fatalf("t=%d: merged bucket %d has slab row %d", h.now, i, b.slot)
		}
		if b.slot != noSlot {
			claim(b.slot, 1)
		}
	}
	var count int64
	visited := 0
	last := h.now - n
	h.each(h.now, func(b bucket) {
		if b.Timestamp <= last {
			t.Fatalf("t=%d: bucket %d timestamp %d not after %d", h.now, visited, b.Timestamp, last)
		}
		last = b.Last
		count += b.Count
		visited++
	})
	if visited != h.NumBuckets() {
		t.Fatalf("t=%d: the walk visits %d buckets, NumBuckets() = %d", h.now, visited, h.NumBuckets())
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

// TestDaemonDefaultMerges runs the sketchpca-noc defaults (n = 4 032,
// ε = 0.01, l = 100), where rule 2 can fire (n ≥ 40/ε + 4), for three
// windows of uniform volumes with one gap of a few intervals and one longer
// than the window. Every update checks the storage invariants; every 127th
// the totals against the bucket list and Lemma 1 against the exact window. Buckets must merge both before the long gap and after it.
func TestDaemonDefaultMerges(t *testing.T) {
	const (
		n, l, eps = 4032, 100, 0.01
		every     = 127
	)
	h := mustHist(t, Config{WindowLen: n, Epsilon: eps, Gen: newRing(t, 1, l, n)})
	rng := rand.New(rand.NewSource(1))
	var ts []int64
	var xs []float64
	var ti int64
	mergedBefore, mergedAfter := 0, 0
	for i := 0; i < 3*n; i++ {
		ti++
		switch i {
		case n / 2:
			ti += 5
		case n + n/2:
			ti += n + 3
		}
		x := 1e6 * rng.Float64()
		ts, xs = append(ts, ti), append(xs, x)
		if err := h.Update(ti, x); err != nil {
			t.Fatal(err)
		}
		checkStorage(t, h)
		if i < n+n/2 {
			mergedBefore = max(mergedBefore, len(h.merged))
		} else {
			mergedAfter = max(mergedAfter, len(h.merged))
		}
		if i%every != 0 {
			continue
		}
		checkTotals(t, h)
		inWindow := 0
		for j := len(ts) - 1; j >= 0 && ts[j] > ti-n; j-- {
			inWindow++
		}
		win := xs[len(xs)-inWindow:]
		_, exact, _ := exactWindow(win, inWindow)
		var sumSq float64
		for _, v := range win {
			sumSq += v * v
		}
		slack := 1e-12 * float64(inWindow) * sumSq
		if est := h.EstimateVariance(); est > exact+slack || est < (1-eps)*exact-slack {
			t.Fatalf("t=%d: V̂ = %v outside [(1−ε)V, V] for V = %v", ti, est, exact)
		}
	}
	if mergedBefore == 0 || mergedAfter == 0 {
		t.Fatalf("merged buckets: at most %d before the long gap and %d after it, want some in both", mergedBefore, mergedAfter)
	}
	t.Logf("%d buckets, %d merged, at the end", h.NumBuckets(), len(h.merged))
}
