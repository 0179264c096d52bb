package vh

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestEstimateVarianceZeroAlloc pins the query path to zero allocations: the
// detector calls EstimateVariance once per flow per interval, and the
// moment fold over the window must not heap-allocate.
func TestEstimateVarianceZeroAlloc(t *testing.T) {
	h, err := New(Config{WindowLen: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1024; i++ {
		if err := h.Update(int64(i+1), rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(200, func() { _ = h.EstimateVariance() }); avg != 0 {
		t.Fatalf("EstimateVariance allocates %.2f per call, want 0", avg)
	}
}

// TestNonMergingUpdatesAllocateNothing: a histogram is its window ring, which
// New sizes to n, so three windows of updates after it allocate nothing and
// all n elements are ring slots: at the benchmark workloads' n = 144 and at
// the sketchpca-noc default n = 4 032.
func TestNonMergingUpdatesAllocateNothing(t *testing.T) {
	for _, n := range []int{144, 4032} {
		h, err := New(Config{WindowLen: n, Gen: newRing(t, 3, 100, n)})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		xs := make([]float64, 3*n)
		for i := range xs {
			xs[i] = 1e6 * rng.Float64()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, x := range xs {
			if err := h.Update(int64(i+1), x); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; got != 0 {
			t.Fatalf("n=%d: 3n updates allocated %d times", n, got)
		}
		if h.Count() != int64(n) || len(h.window) != n {
			t.Fatalf("%d elements in a ring of %d, want %d of %d", h.Count(), len(h.window), n, n)
		}
	}
}
