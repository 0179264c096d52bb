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
		{name: "valid", cfg: Config{WindowLen: 10}, ok: true},
		{name: "zero window", cfg: Config{}},
		{name: "ring shorter than window", cfg: Config{WindowLen: 10, Gen: newRing(t, 1, 2, 9)}},
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
	h := mustHist(t, Config{WindowLen: 10})
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
	h := mustHist(t, Config{WindowLen: 4})
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
	h := mustHist(t, Config{WindowLen: 5})
	if h.EstimateVariance() != 0 || h.EstimateMean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if got := h.Sketch(); got != nil {
		t.Fatalf("no-generator sketch = %v, want nil", got)
	}
}

func TestExpiry(t *testing.T) {
	h := mustHist(t, Config{WindowLen: 3})
	feed(t, h, []float64{10, 20, 30, 40, 50})
	// Window is {30, 40, 50}.
	if got := h.Count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	if got := h.EstimateMean(); math.Abs(got-40) > 1e-12 {
		t.Fatalf("mean = %v, want 40", got)
	}
}

// suffixStats is the brute-force reference over the last c of the updates
// (ts, xs): their mean and their eq.-17 sketch, every row regenerated from
// the generator and never read from the ring under test.
func suffixStats(g *randproj.Generator, ts []int64, xs []float64, c int) (mean float64, sk []float64) {
	ts, xs = ts[len(ts)-c:], xs[len(xs)-c:]
	for _, x := range xs {
		mean += x
	}
	mean /= float64(c)
	if g == nil {
		return mean, nil
	}
	sk = make([]float64, g.SketchLen())
	for i, x := range xs {
		for k := range sk {
			sk[k] += (x - mean) * g.At(ts[i], k)
		}
	}
	for k := range sk {
		sk[k] /= math.Sqrt(float64(len(sk)))
	}
	return mean, sk
}

// TestExpiryWithTimeGaps jumps the clock so that the expiring element sits
// exactly n, n+1 and more than 3n intervals behind the new one. Two
// histograms share one ring: the first to update at t takes the slot of
// t−(n+1), so the second can only subtract that expiring singleton by the
// ring's regenerate path.
func TestExpiryWithTimeGaps(t *testing.T) {
	const n, l = 5, 3
	tests := []struct {
		name      string
		times     []int64
		wantCount int64
	}{
		{name: "far jump empties the list", times: []int64{1, 2, 100}, wantCount: 1},
		{name: "jump of n", times: []int64{0, 2, n}, wantCount: 2},
		{name: "jump of n+1 retakes the expiring slot", times: []int64{0, 3, n + 1}, wantCount: 2},
		{name: "jump of 3n+7", times: []int64{0, 1, 3*n + 7}, wantCount: 1},
		{name: "negative start", times: []int64{-20, -17, -20 + n + 1}, wantCount: 2},
		{name: "jump of n+1 across zero", times: []int64{-4, -1, 2}, wantCount: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, ring := newGenRing(t, 99, l, n)
			hs := []*Histogram{
				mustHist(t, Config{WindowLen: n, Gen: ring}),
				mustHist(t, Config{WindowLen: n, Gen: ring}),
			}
			xs := make([][]float64, len(hs))
			for i, ti := range tt.times {
				for j, h := range hs {
					x := float64(100*(i+1) + 7*j)
					xs[j] = append(xs[j], x)
					if err := h.Update(ti, x); err != nil {
						t.Fatal(err)
					}
				}
			}
			for j, h := range hs {
				if got := h.Count(); got != tt.wantCount {
					t.Fatalf("histogram %d: count = %d, want %d", j, got, tt.wantCount)
				}
				mean, sk := suffixStats(g, tt.times, xs[j], int(tt.wantCount))
				if got := h.EstimateMean(); math.Abs(got-mean) > 1e-12*mean {
					t.Fatalf("histogram %d: mean = %v, want %v", j, got, mean)
				}
				for k, got := range h.Sketch() {
					if math.Abs(got-sk[k]) > 1e-9 {
						t.Fatalf("histogram %d: sketch[%d] = %v, want %v", j, k, got, sk[k])
					}
				}
			}
		})
	}
}

// summary is the window's count, mean and sketch sums, summed afresh.
type summary struct {
	Count int64
	Mean  float64
	Z, R  []float64
}

// aggregate sums the window into a summary, the ground truth the incremental
// totals are checked against; rows are read through the ring. An empty
// histogram yields a zero summary.
func aggregate(h *Histogram) summary {
	all := summary{Z: make([]float64, h.sketchL), R: make([]float64, h.sketchL)}
	h.each(h.now, func(t int64, x float64) {
		all.Count++
		all.Mean += x
		if h.sketchL > 0 {
			for k, r := range h.cfg.Gen.Row(t) {
				all.Z[k] += x * r
				all.R[k] += r
			}
		}
	})
	if all.Count > 0 {
		all.Mean /= float64(all.Count)
	}
	return all
}

// newGenRing returns a generator and a private row ring over it for a
// stand-alone histogram; references read the generator, never the ring.
func newGenRing(t testing.TB, seed uint64, l, window int) (*randproj.Generator, *randproj.Ring) {
	t.Helper()
	g, err := randproj.NewGenerator(randproj.Config{Seed: seed, SketchLen: l, WindowLen: window})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := randproj.NewRing(g, window)
	if err != nil {
		t.Fatal(err)
	}
	return g, ring
}

func newRing(t testing.TB, seed uint64, l, window int) *randproj.Ring {
	t.Helper()
	_, ring := newGenRing(t, seed, l, window)
	return ring
}

func TestSketchExactWithoutMerging(t *testing.T) {
	// The sketch equals the exact projection of the centered window column.
	l, n := 12, 64
	g, ring := newGenRing(t, 99, l, n)
	h := mustHist(t, Config{WindowLen: n, Gen: ring})
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

// TestPriorSketchLeavesOutTheNewest: PriorSketchInto after
// every update equals the exact projection of the centred window without its
// newest element, and its mean is that window's.
func TestPriorSketchLeavesOutTheNewest(t *testing.T) {
	l, n := 70, 32
	g, ring := newGenRing(t, 5, l, n)
	h := mustHist(t, Config{WindowLen: n, Gen: ring})
	rng := rand.New(rand.NewSource(78))
	var data []float64
	var got []float64
	scale := 1 / math.Sqrt(float64(l))
	for i := 0; i < 3*n; i++ {
		x := 100 + 10*rng.NormFloat64()
		data = append(data, x)
		if err := h.Update(int64(i+1), x); err != nil {
			t.Fatal(err)
		}
		var mean float64
		got, mean = h.PriorSketchInto(got)
		// The elements before the newest that are still in the window.
		prior := data[max(0, len(data)-n) : len(data)-1]
		var wantMean float64
		for _, v := range prior {
			wantMean += v / float64(len(prior))
		}
		if math.Abs(mean-wantMean) > 1e-9*wantMean || len(prior) == 0 && mean != 0 {
			t.Fatalf("t=%d: prior mean %v, want %v", i+1, mean, wantMean)
		}
		t0 := int64(len(data) - len(prior))
		for k := 0; k < l; k++ {
			var want float64
			for j, v := range prior {
				want += (v - wantMean) * g.At(t0+int64(j), k)
			}
			want *= scale
			if math.Abs(got[k]-want) > 1e-8*math.Max(1, math.Abs(want)) {
				t.Fatalf("t=%d: prior sketch[%d] = %v, want %v", i+1, k, got[k], want)
			}
		}
	}
}

// Property: the incrementally maintained linear totals (count, mean, Z, R)
// always agree with a fresh sum over the window.
func TestQuickIncrementalTotalsMatchAggregate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 16 + r.Intn(64)
		l := 1 + r.Intn(8)
		h, err := New(Config{WindowLen: n, Gen: newRing(t, uint64(seed)+1, l, n)})
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
// drift bug: expiry used to *subtract* each dropped element's contributions
// from totalSum/totalZ/totalR forever, so over long runs with large-magnitude
// volumes the rounding residue of those subtractions accumulated and
// Sketch()/EstimateMean() diverged from the window's ground truth. The
// rebase rules of the Histogram comment bound the divergence.
//
// The workload alternates huge-magnitude (1e12) and unit-magnitude phases:
// after a huge phase expires the surviving totals are small, so any residue
// left behind by the departed elements dominates the relative error.
func TestLongRunTotalsDrift(t *testing.T) {
	const (
		window  = 256
		l       = 4
		phase   = 1024 // intervals per magnitude regime
		updates = 1_000_000
	)
	h := mustHist(t, Config{WindowLen: window, Gen: newRing(t, 99, l, window)})
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
		t.Errorf("EstimateMean drifted: rel err %.3e (got %v, window %v)", rel, h.EstimateMean(), agg.Mean)
	}
	sk := h.Sketch()
	scale := 1 / math.Sqrt(float64(l))
	for k := 0; k < l; k++ {
		want := scale * (agg.Z[k] - agg.Mean*agg.R[k])
		rel := math.Abs(sk[k]-want) / math.Max(1, math.Abs(want))
		if rel > 1e-9 {
			t.Errorf("Sketch()[%d] drifted: rel err %.3e (got %v, window %v)", k, rel, sk[k], want)
		}
	}
}

// rowMax is max|r_{tk}|: every projection entry is ±1.
const rowMax = 1

// totalsRelBound is the documented totals bound in its every-step form
// (B + 2P ≤ 5n), relative to the window sum, with 8n·u on top for the
// rounding of whatever reference it is compared with.
func totalsRelBound(n int) float64 {
	const u = 1.0 / (1 << 53)
	return (5*cliffFactor + 8) * float64(n) * u
}

// checkTotals asserts the bound the Histogram comment documents between the
// incremental totals and a fresh sum over the window. It holds for
// non-negative volumes.
func checkTotals(t testing.TB, h *Histogram) {
	t.Helper()
	agg := aggregate(h)
	if h.Count() != agg.Count {
		t.Fatalf("t=%d: Count() = %d, aggregate count = %d", h.now, h.Count(), agg.Count)
	}
	const u = 1.0 / (1 << 53)
	n := float64(h.cfg.WindowLen)
	rel := totalsRelBound(h.cfg.WindowLen)
	mean := h.EstimateMean()
	if d := math.Abs(mean - agg.Mean); d > rel*agg.Mean {
		t.Fatalf("t=%d: EstimateMean() = %v, window %v: off by %.3g, bound %.3g", h.now, mean, agg.Mean, d, rel*agg.Mean)
	}
	count := float64(agg.Count)
	errZ := rel * count * agg.Mean * rowMax
	errR := 13 * n * u * count * rowMax
	scale := 1 / math.Sqrt(float64(h.sketchL))
	for k, got := range h.Sketch() {
		want := scale * (agg.Z[k] - agg.Mean*agg.R[k])
		bound := scale * (errZ + agg.Mean*errR + math.Abs(agg.R[k])*rel*agg.Mean)
		if d := math.Abs(got - want); d > bound {
			t.Fatalf("t=%d: Sketch()[%d] = %v, window %v: off by %.3g, bound %.3g", h.now, k, got, want, d, bound)
		}
	}
}

// updateChecked is Update followed by the every-step assertions: the totals
// bound, and that a scheduled rebase only ran once at least Count()
// updates had passed since the previous rebase.
func updateChecked(t testing.TB, h *Histogram, ti int64, x float64) {
	t.Helper()
	passed, scheduled := h.sinceRebase+1, h.scheduledRebases
	if err := h.Update(ti, x); err != nil {
		t.Fatalf("update t=%d: %v", ti, err)
	}
	if h.scheduledRebases != scheduled && int64(passed) < h.Count() {
		t.Fatalf("t=%d: scheduled rebase after %d updates with %d elements live", ti, passed, h.Count())
	}
	checkTotals(t, h)
}

// TestTotalsBoundEveryStep runs the TestLongRunTotalsDrift workload for a few
// phases and holds the totals to the documented bound after every update:
// expiry subtracts, so the steps where a 1e12 phase has just left a window of
// unit volumes are the ones that would show its residue.
func TestTotalsBoundEveryStep(t *testing.T) {
	const (
		window = 256
		l      = 4
		phase  = 1024
	)
	for _, gaps := range []bool{false, true} {
		h := mustHist(t, Config{WindowLen: window, Gen: newRing(t, 99, l, window)})
		r := rand.New(rand.NewSource(7))
		ti := int64(0)
		for i := 0; i < 6*phase; i++ {
			x := 1 + r.Float64()
			if (i/phase)%2 == 1 {
				x *= 1e12
			}
			ti++
			if gaps {
				ti += int64(r.Intn(3))
				if i%777 == 776 {
					ti += window / 2
				}
			}
			updateChecked(t, h, ti, x)
		}
		if h.scheduledRebases == 0 {
			t.Fatalf("gaps=%v: no scheduled rebase in %d updates", gaps, 6*phase)
		}
	}
}

// TestEstimateVarianceMatchesAggregate holds the one-pass moment fold to the
// two-pass variance of the exact window.
func TestEstimateVarianceMatchesAggregate(t *testing.T) {
	const n = 128
	g := newRing(t, 5, 8, n)
	h := mustHist(t, Config{WindowLen: n, Gen: g})
	r := rand.New(rand.NewSource(11))
	var data []float64
	for i := 0; i < 5000; i++ {
		x := 10 + 100*r.Float64()
		data = append(data, x)
		if err := h.Update(int64(i+1), x); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if i%97 == 0 {
			_, want, _ := exactWindow(data, n)
			if got := h.EstimateVariance(); math.Abs(got-want) > 1e-12*want {
				t.Fatalf("update %d: EstimateVariance() = %v, exact window %v", i, got, want)
			}
		}
	}
	// Empty histogram.
	h = mustHist(t, Config{WindowLen: n, Gen: g})
	if got := h.EstimateVariance(); got != 0 {
		t.Fatalf("empty EstimateVariance() = %v", got)
	}
}

// BenchmarkEstimateVariance shows the hot-path variance read is
// allocation-free.
func BenchmarkEstimateVariance(b *testing.B) {
	h, err := New(Config{WindowLen: 4032, Gen: newRing(b, 5, 200, 4032)})
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
