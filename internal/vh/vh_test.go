package vh

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streampca/internal/randproj"
)

// exactWindow computes the exact statistics of the last n elements of data
// (or all of data when shorter).
func exactWindow(data []float64, n int) (mean, variance float64, count int) {
	if len(data) > n {
		data = data[len(data)-n:]
	}
	count = len(data)
	if count == 0 {
		return 0, 0, 0
	}
	for _, x := range data {
		mean += x
	}
	mean /= float64(count)
	for _, x := range data {
		d := x - mean
		variance += d * d
	}
	return mean, variance, count
}

func mustHist(t *testing.T, cfg Config) *Histogram {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func feed(t *testing.T, h *Histogram, data []float64) {
	t.Helper()
	for i, x := range data {
		if err := h.Update(int64(i+1), x); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{name: "valid", cfg: Config{WindowLen: 10, Epsilon: 0.1}, ok: true},
		{name: "zero window", cfg: Config{Epsilon: 0.1}},
		{name: "eps zero", cfg: Config{WindowLen: 10}},
		{name: "eps one", cfg: Config{WindowLen: 10, Epsilon: 1}},
		{name: "eps NaN", cfg: Config{WindowLen: 10, Epsilon: math.NaN()}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg)
			if tt.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tt.ok && !errors.Is(err, ErrConfig) {
				t.Fatalf("want ErrConfig, got %v", err)
			}
		})
	}
}

func TestUpdateRejectsBadInput(t *testing.T) {
	h := mustHist(t, Config{WindowLen: 10, Epsilon: 0.1})
	if err := h.Update(1, math.NaN()); !errors.Is(err, ErrNotFinite) {
		t.Fatalf("NaN: %v", err)
	}
	if err := h.Update(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.Update(5, 2); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("same t: %v", err)
	}
	if err := h.Update(3, 2); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("older t: %v", err)
	}
}

func TestSmallWindowExact(t *testing.T) {
	// With ε small the merge rules barely fire, so the histogram stays an
	// exact sliding-window summary.
	h := mustHist(t, Config{WindowLen: 4, Epsilon: 0.01})
	data := []float64{1, 2, 3, 4, 5, 6}
	feed(t, h, data)
	wantMean, wantVar, wantCount := exactWindow(data, 4)
	if got := h.Count(); got != int64(wantCount) {
		t.Fatalf("count = %d, want %d", got, wantCount)
	}
	if got := h.EstimateMean(); math.Abs(got-wantMean) > 1e-12 {
		t.Fatalf("mean = %v, want %v", got, wantMean)
	}
	if got := h.EstimateVariance(); math.Abs(got-wantVar) > 1e-12 {
		t.Fatalf("variance = %v, want %v", got, wantVar)
	}
}

func TestEmptyHistogram(t *testing.T) {
	h := mustHist(t, Config{WindowLen: 5, Epsilon: 0.1})
	if h.EstimateVariance() != 0 || h.EstimateMean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if h.NumBuckets() != 0 {
		t.Fatal("empty histogram has no buckets")
	}
	if got := h.Sketch(); got != nil {
		t.Fatalf("no-generator sketch = %v, want nil", got)
	}
}

func TestExpiry(t *testing.T) {
	h := mustHist(t, Config{WindowLen: 3, Epsilon: 0.01})
	feed(t, h, []float64{10, 20, 30, 40, 50})
	// Window is {30, 40, 50}.
	if got := h.Count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	if got := h.EstimateMean(); math.Abs(got-40) > 1e-12 {
		t.Fatalf("mean = %v, want 40", got)
	}
}

func TestExpiryWithTimeGaps(t *testing.T) {
	h := mustHist(t, Config{WindowLen: 5, Epsilon: 0.01})
	if err := h.Update(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := h.Update(2, 200); err != nil {
		t.Fatal(err)
	}
	// Jump far ahead: both previous elements expire at once.
	if err := h.Update(100, 7); err != nil {
		t.Fatal(err)
	}
	if got := h.Count(); got != 1 {
		t.Fatalf("count after gap = %d, want 1", got)
	}
	if got := h.EstimateMean(); got != 7 {
		t.Fatalf("mean after gap = %v, want 7", got)
	}
}

func TestLemma1VarianceBound(t *testing.T) {
	// (1−ε)V ≤ V̂ ≤ V across epsilons and workloads.
	workloads := map[string]func(rng *rand.Rand, i int) float64{
		"uniform":  func(rng *rand.Rand, _ int) float64 { return rng.Float64() * 100 },
		"gaussian": func(rng *rand.Rand, _ int) float64 { return 50 + 10*rng.NormFloat64() },
		"trend":    func(rng *rand.Rand, i int) float64 { return float64(i) + rng.NormFloat64() },
		"spiky": func(rng *rand.Rand, i int) float64 {
			v := 10 + rng.NormFloat64()
			if i%97 == 0 {
				v += 500
			}
			return v
		},
	}
	for name, gen := range workloads {
		for _, eps := range []float64{0.05, 0.2, 0.5} {
			rng := rand.New(rand.NewSource(31))
			n := 256
			h := mustHist(t, Config{WindowLen: n, Epsilon: eps})
			var data []float64
			for i := 0; i < 4*n; i++ {
				x := gen(rng, i)
				data = append(data, x)
				if err := h.Update(int64(i+1), x); err != nil {
					t.Fatal(err)
				}
				if i < n/2 {
					continue
				}
				_, exact, _ := exactWindow(data, n)
				est := h.EstimateVariance()
				if est > exact*(1+1e-9)+1e-9 {
					t.Fatalf("%s eps=%v i=%d: V̂ = %v exceeds V = %v", name, eps, i, est, exact)
				}
				if est < (1-eps)*exact-1e-9 {
					t.Fatalf("%s eps=%v i=%d: V̂ = %v below (1−ε)V = %v", name, eps, i, (1-eps)*exact, est)
				}
			}
		}
	}
}

func TestBucketCompression(t *testing.T) {
	// With a generous ε the histogram must hold far fewer buckets than the
	// window, demonstrating the O((1/ε)·log n) summary.
	rng := rand.New(rand.NewSource(8))
	n := 1024
	h := mustHist(t, Config{WindowLen: n, Epsilon: 0.5})
	for i := 0; i < 3*n; i++ {
		if err := h.Update(int64(i+1), 100+rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.NumBuckets(); got >= n/2 {
		t.Fatalf("buckets = %d for window %d: no compression", got, n)
	}
}

func TestBucketsOrdering(t *testing.T) {
	h := mustHist(t, Config{WindowLen: 10, Epsilon: 0.1})
	feed(t, h, []float64{1, 2, 3})
	bs := h.buckets
	if len(bs) != 3 {
		t.Fatalf("buckets = %d", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if bs[i].Timestamp <= bs[i-1].Timestamp {
			t.Fatal("buckets must be ordered oldest first")
		}
	}
}

// aggregate merges all buckets into one summary B_all = ∪_p B_p, the
// bucket-list ground truth the incremental totals and the moment fold are
// checked against. An empty histogram yields a zero bucket.
func aggregate(h *Histogram) Bucket {
	var all Bucket
	if len(h.buckets) == 0 {
		if h.sketchL > 0 {
			all.Z = make([]float64, h.sketchL)
			all.R = make([]float64, h.sketchL)
		}
		return all
	}
	first := h.buckets[0]
	all = Bucket{Timestamp: first.Timestamp, Count: first.Count, Mean: first.Mean, Var: first.Var}
	if h.sketchL > 0 {
		all.Z = append([]float64(nil), first.Z...)
		all.R = append([]float64(nil), first.R...)
	}
	for i := 1; i < len(h.buckets); i++ {
		all.mergeInto(&h.buckets[i])
	}
	return all
}

func newSketchGen(t *testing.T, l int, window int) *randproj.Generator {
	t.Helper()
	g, err := randproj.NewGenerator(randproj.Config{Seed: 99, SketchLen: l, WindowLen: window})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSketchExactWithoutMerging(t *testing.T) {
	// ε tiny → no merging → the sketch equals the exact projection of the
	// centered window column.
	l, n := 12, 64
	g := newSketchGen(t, l, n)
	h := mustHist(t, Config{WindowLen: n, Epsilon: 0.001, Gen: g})
	rng := rand.New(rand.NewSource(77))
	var data []float64
	for i := 0; i < 2*n; i++ {
		x := 100 + 10*rng.NormFloat64()
		data = append(data, x)
		if err := h.Update(int64(i+1), x); err != nil {
			t.Fatal(err)
		}
	}
	got := h.Sketch()
	if len(got) != l {
		t.Fatalf("sketch length = %d", len(got))
	}

	// Exact: center the last n values, project with the same r_{tk}.
	window := data[len(data)-n:]
	mean, _, _ := exactWindow(data, n)
	t0 := int64(len(data) - n + 1)
	want := make([]float64, l)
	for i, x := range window {
		tIdx := t0 + int64(i)
		for k := 0; k < l; k++ {
			want[k] += (x - mean) * g.At(tIdx, k)
		}
	}
	scale := 1 / math.Sqrt(float64(l))
	for k := range want {
		want[k] *= scale
		if math.Abs(got[k]-want[k]) > 1e-8*math.Max(1, math.Abs(want[k])) {
			t.Fatalf("sketch[%d] = %v, want %v", k, got[k], want[k])
		}
	}
}

func TestSketchApproximatesProjectionWithMerging(t *testing.T) {
	// With moderate ε and merging active, the sketch must stay close to the
	// exact projection in relative L2 error.
	l, n := 16, 256
	g := newSketchGen(t, l, n)
	eps := 0.1
	h := mustHist(t, Config{WindowLen: n, Epsilon: eps, Gen: g})
	rng := rand.New(rand.NewSource(123))
	var data []float64
	for i := 0; i < 4*n; i++ {
		x := 1000 + 50*rng.NormFloat64()
		data = append(data, x)
		if err := h.Update(int64(i+1), x); err != nil {
			t.Fatal(err)
		}
	}
	got := h.Sketch()
	window := data[len(data)-n:]
	mean, _, _ := exactWindow(data, n)
	t0 := int64(len(data) - n + 1)
	want := make([]float64, l)
	for i, x := range window {
		for k := 0; k < l; k++ {
			want[k] += (x - mean) * g.At(t0+int64(i), k)
		}
	}
	var num, den float64
	scale := 1 / math.Sqrt(float64(l))
	for k := range want {
		want[k] *= scale
		d := got[k] - want[k]
		num += d * d
		den += want[k] * want[k]
	}
	if den == 0 {
		t.Fatal("degenerate reference sketch")
	}
	if rel := math.Sqrt(num / den); rel > 0.5 {
		t.Fatalf("relative sketch error %v too large", rel)
	}
}

func TestMergeIntoFormulae(t *testing.T) {
	// Merge two buckets and compare against direct computation over the
	// concatenated samples.
	xs := []float64{1, 4, 7}
	ys := []float64{10, 13}
	a := bucketOf(1, xs)
	b := bucketOf(4, ys)
	a.mergeInto(&b)
	allVals := append(append([]float64(nil), xs...), ys...)
	wantMean, wantVar, _ := exactWindow(allVals, len(allVals))
	if a.Count != 5 || math.Abs(a.Mean-wantMean) > 1e-12 || math.Abs(a.Var-wantVar) > 1e-12 {
		t.Fatalf("merged = %+v, want mean %v var %v", a, wantMean, wantVar)
	}
	if a.Timestamp != 1 {
		t.Fatalf("merged timestamp = %d, want the older bucket's", a.Timestamp)
	}
}

func bucketOf(ts int64, vals []float64) Bucket {
	var b Bucket
	b.Timestamp = ts
	b.Count = int64(len(vals))
	for _, v := range vals {
		b.Mean += v
	}
	b.Mean /= float64(len(vals))
	for _, v := range vals {
		d := v - b.Mean
		b.Var += d * d
	}
	return b
}

// Property: merging bucketized prefixes reproduces exact whole-sample stats
// regardless of how the sample is partitioned.
func TestQuickMergePartitionInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.NormFloat64() * 50
		}
		cut := 1 + r.Intn(n-1)
		a := bucketOf(1, vals[:cut])
		b := bucketOf(int64(cut+1), vals[cut:])
		a.mergeInto(&b)
		wantMean, wantVar, _ := exactWindow(vals, n)
		return math.Abs(a.Mean-wantMean) < 1e-9*math.Max(1, math.Abs(wantMean)) &&
			math.Abs(a.Var-wantVar) < 1e-8*math.Max(1, wantVar)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the incrementally maintained linear totals (count, mean, Z, R)
// always agree with a full aggregate over the bucket list.
func TestQuickIncrementalTotalsMatchAggregate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 16 + r.Intn(64)
		l := 1 + r.Intn(8)
		g, err := randproj.NewGenerator(randproj.Config{Seed: uint64(seed) + 1, SketchLen: l})
		if err != nil {
			return false
		}
		h, err := New(Config{WindowLen: n, Epsilon: 0.05 + 0.5*r.Float64(), Gen: g})
		if err != nil {
			return false
		}
		tNow := int64(0)
		for i := 0; i < 3*n; i++ {
			tNow += 1 + int64(r.Intn(3)) // occasional gaps exercise expiry
			if err := h.Update(tNow, r.Float64()*100); err != nil {
				return false
			}
		}
		agg := aggregate(h)
		if h.Count() != agg.Count {
			return false
		}
		if math.Abs(h.EstimateMean()-agg.Mean) > 1e-9*math.Max(1, math.Abs(agg.Mean)) {
			return false
		}
		sk := h.Sketch()
		scale := 1 / math.Sqrt(float64(l))
		for k := 0; k < l; k++ {
			want := scale * (agg.Z[k] - agg.Mean*agg.R[k])
			if math.Abs(sk[k]-want) > 1e-6*math.Max(1, math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLongRunTotalsDrift is the regression test for the incremental-totals
// drift bug: expiry used to *subtract* each dropped bucket's contributions
// from totalSum/totalZ/totalR forever, so over long runs with large-magnitude
// volumes the rounding residue of those subtractions accumulated and
// Sketch()/EstimateMean() diverged from the bucket-list ground truth. The
// totals are now rebased from the surviving buckets whenever expiry drops a
// bucket, which bounds the divergence by one window's worth of additions.
//
// The workload alternates huge-magnitude (1e12) and unit-magnitude phases:
// after a huge phase expires the surviving totals are small, so any residue
// left behind by the departed buckets dominates the relative error.
func TestLongRunTotalsDrift(t *testing.T) {
	const (
		window  = 256
		l       = 4
		phase   = 1024 // intervals per magnitude regime
		updates = 1_000_000
	)
	g, err := randproj.NewGenerator(randproj.Config{Seed: 99, SketchLen: l})
	if err != nil {
		t.Fatal(err)
	}
	h := mustHist(t, Config{WindowLen: window, Epsilon: 0.3, Gen: g})
	r := rand.New(rand.NewSource(7))
	for i := 0; i < updates; i++ {
		x := 1 + r.Float64()
		if (i/phase)%2 == 1 {
			x *= 1e12
		}
		if err := h.Update(int64(i+1), x); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	// The run ends deep inside a unit-magnitude phase (updates/phase is even,
	// so the final phase index is odd... make sure of it below) — assert we
	// really are comparing small totals against ground truth.
	if (updates-1)/phase%2 != 0 {
		// keep the final window in the unit regime: the constant choice above
		// must end on an even (unit) phase.
		t.Fatalf("workload must end in a unit-magnitude phase")
	}
	agg := aggregate(h)
	if h.Count() != agg.Count {
		t.Fatalf("Count() = %d, aggregate count = %d", h.Count(), agg.Count)
	}
	if rel := math.Abs(h.EstimateMean()-agg.Mean) / math.Max(1e-300, math.Abs(agg.Mean)); rel > 1e-9 {
		t.Errorf("EstimateMean drifted: rel err %.3e (got %v, bucket-list %v)", rel, h.EstimateMean(), agg.Mean)
	}
	sk := h.Sketch()
	scale := 1 / math.Sqrt(float64(l))
	for k := 0; k < l; k++ {
		want := scale * (agg.Z[k] - agg.Mean*agg.R[k])
		rel := math.Abs(sk[k]-want) / math.Max(1, math.Abs(want))
		if rel > 1e-9 {
			t.Errorf("Sketch()[%d] drifted: rel err %.3e (got %v, bucket-list %v)", k, rel, sk[k], want)
		}
	}
}

// TestEstimateVarianceMatchesAggregate pins the sketch-free moment fold to
// the aggregate() reference: both walk the bucket list with the same merge
// recurrence, so they must agree bit-for-bit.
func TestEstimateVarianceMatchesAggregate(t *testing.T) {
	g, err := randproj.NewGenerator(randproj.Config{Seed: 5, SketchLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	h := mustHist(t, Config{WindowLen: 128, Epsilon: 0.1, Gen: g})
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		if err := h.Update(int64(i+1), 10+100*r.Float64()); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if i%97 == 0 {
			agg := aggregate(h)
			if got := h.EstimateVariance(); got != agg.Var {
				t.Fatalf("update %d: EstimateVariance() = %v, aggregate().Var = %v", i, got, agg.Var)
			}
		}
	}
	// Empty histogram.
	h = mustHist(t, Config{WindowLen: 128, Epsilon: 0.1, Gen: g})
	if got := h.EstimateVariance(); got != 0 {
		t.Fatalf("empty EstimateVariance() = %v", got)
	}
}

// BenchmarkEstimateVariance shows the hot-path variance read is
// allocation-free (it used to call Aggregate(), deep-copying every bucket's
// Z/R slices).
func BenchmarkEstimateVariance(b *testing.B) {
	g, err := randproj.NewGenerator(randproj.Config{Seed: 5, SketchLen: 200})
	if err != nil {
		b.Fatal(err)
	}
	h, err := New(Config{WindowLen: 4032, Epsilon: 0.01, Gen: g})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 8064; i++ {
		if err := h.Update(int64(i+1), 10+100*r.Float64()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += h.EstimateVariance()
	}
	_ = sink
}

func TestUpdateWithRowValidation(t *testing.T) {
	g := newSketchGen(t, 4, 8)
	h := mustHist(t, Config{WindowLen: 8, Epsilon: 0.1, Gen: g})
	if err := h.UpdateWithRow(1, 5, []float64{1, 2}); !errors.Is(err, ErrConfig) {
		t.Fatalf("short row: %v", err)
	}
	if err := h.UpdateWithRow(1, 5, g.Row(1)); err != nil {
		t.Fatal(err)
	}
}

// Property: Lemma 1 holds for random streams and epsilons.
func TestQuickLemma1(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		eps := 0.05 + 0.6*r.Float64()
		n := 32 + r.Intn(128)
		h, err := New(Config{WindowLen: n, Epsilon: eps})
		if err != nil {
			return false
		}
		var data []float64
		total := n + r.Intn(3*n)
		for i := 0; i < total; i++ {
			x := r.Float64() * 1000
			data = append(data, x)
			if err := h.Update(int64(i+1), x); err != nil {
				return false
			}
		}
		_, exact, _ := exactWindow(data, n)
		est := h.EstimateVariance()
		return est <= exact*(1+1e-9)+1e-9 && est >= (1-eps)*exact-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
