package vh

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestEstimateVarianceZeroAlloc pins the query path to zero allocations: the
// detector calls EstimateVariance once per flow per interval, and the
// aggregate-moments walk over the bucket list must not heap-allocate.
func TestEstimateVarianceZeroAlloc(t *testing.T) {
	h, err := New(Config{WindowLen: 256, Epsilon: 0.05})
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

// TestNonMergingUpdatesAllocateNothing: where no bucket can merge (every
// deployed point: 2 + 20/ε > n/2) a histogram is its window ring, which New
// sizes to n, so three windows of updates after it allocate nothing, the
// merged list stays empty and all n buckets are ring slots.
func TestNonMergingUpdatesAllocateNothing(t *testing.T) {
	const n = 144
	h, err := New(Config{WindowLen: n, Epsilon: 0.01, Gen: newRing(t, 3, 100, n)})
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
		t.Fatalf("3n updates allocated %d times", got)
	}
	if cap(h.merged) != 0 || len(h.slab) != 0 {
		t.Fatalf("a bucket merged: %d merged buckets, %d slab floats", len(h.merged), len(h.slab))
	}
	if h.NumBuckets() != n || len(h.window) != n {
		t.Fatalf("%d buckets in a ring of %d, want %d of %d", h.NumBuckets(), len(h.window), n, n)
	}
}
