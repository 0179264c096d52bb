package sketch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streampca/internal/randproj"
	"streampca/internal/vh"
)

// requester is what a pull's asking side keeps of one sketcher's answers:
// its last whole report, and the Applier that moves it on by a delta.
type requester struct {
	base    Snapshot
	held    bool
	applier *Applier
	deltas  int
}

// pull asks sk for a delta against the held report when there is one, and
// for the whole report when there is none or sk cannot answer one, and
// requires the whole report that results to be sk's SnapshotInto bit for
// bit; that report is then the one held.
//
// Volumes near 2⁵³/n make sums no float64 column gives back exactly; with
// huge set, Apply may refuse such a base (and the requester then takes the
// whole report), and nothing else.
func (q *requester) pull(t *testing.T, sk *RandProj, huge bool) {
	t.Helper()
	var got Snapshot
	delta := q.held && sk.DeltaInto(&got, q.base.Interval)
	if delta {
		if err := got.Validate(q.applier.gen.SketchLen()); err != nil {
			t.Fatalf("interval %d: the delta since %d does not validate: %v", sk.now, q.base.Interval, err)
		}
		switch err := q.applier.Apply(&got, &q.base); {
		case err == nil:
			q.deltas++
		case huge && errors.Is(err, vh.ErrNotSums):
			delta = false
		default:
			t.Fatalf("interval %d: the delta since %d does not apply: %v", sk.now, q.base.Interval, err)
		}
	}
	if !delta {
		sk.SnapshotInto(&got)
	}
	var want Snapshot
	sk.SnapshotInto(&want)
	sameBits(t, sk.now, &got, &want)
	q.base, q.held = got, true
}

// sameBits requires got's columns, means, counts and R′ to be want's.
func sameBits(t *testing.T, now int64, got, want *Snapshot) {
	t.Helper()
	differ := func(a, b float64) bool { return math.Float64bits(a) != math.Float64bits(b) }
	if got.Interval != want.Interval || len(got.FlowIDs) != len(want.FlowIDs) || len(got.DeltaOf) != 0 {
		t.Fatalf("interval %d: a report of interval %d over %d flows (%d delta columns left), want %d over %d",
			now, got.Interval, len(got.FlowIDs), len(got.DeltaOf), want.Interval, len(want.FlowIDs))
	}
	for i, f := range want.FlowIDs {
		if got.FlowIDs[i] != f || got.Counts[i] != want.Counts[i] || differ(got.Means[i], want.Means[i]) {
			t.Fatalf("interval %d flow %d: count %d mean %v, SnapshotInto's %d and %v",
				now, f, got.Counts[i], got.Means[i], want.Counts[i], want.Means[i])
		}
		gr, wr := got.RowSum(i), want.RowSum(i)
		for k := range want.Sketches[i] {
			if differ(got.Sketches[i][k], want.Sketches[i][k]) || differ(gr[k], wr[k]) {
				t.Fatalf("interval %d flow %d: ẑ[%d] %v, R′ %v, SnapshotInto's %v and %v",
					now, f, k, got.Sketches[i][k], gr[k], want.Sketches[i][k], wr[k])
			}
		}
	}
}

// runPulls drives a sketcher through a schedule drawn from seed and steps:
// every step one interval, or a few skipped; a pull after 1 to K+2 of them;
// and, once, a restart, after which the requester keeps what it held.
func runPulls(t *testing.T, seed int64, window, l, w, steps int, huge bool) int {
	rng := rand.New(rand.NewSource(seed))
	gen, err := randproj.NewGenerator(randproj.Config{Seed: uint64(seed), SketchLen: l})
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]int, w)
	for i := range flows {
		flows[i] = 3*i + 1
	}
	start := func() *RandProj {
		sk, err := NewRandProj(Config{FlowIDs: flows, WindowLen: window, Gen: gen})
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	sk := start()
	q := &requester{applier: NewApplier(gen, window, 3*w+1)}
	top := float64(int64(1) << 20)
	if huge {
		top = math.Floor((1<<53 - 1) / float64(window))
	}
	volumes := make([]float64, w)
	restart, t0 := rng.Intn(steps), int64(1)
	nextPull := 1 + rng.Intn(kept(l)+2)
	for s := range steps {
		if rng.Intn(8) == 0 {
			t0 += int64(1 + rng.Intn(3)) // skipped intervals
		}
		if s == restart {
			sk = start()
		}
		for i := range volumes {
			volumes[i] = math.Round(top * (2*rng.Float64() - 1))
		}
		if err := sk.Update(t0, volumes); err != nil {
			t.Fatal(err)
		}
		t0++
		if nextPull--; nextPull == 0 {
			q.pull(t, sk, huge)
			nextPull = 1 + rng.Intn(kept(l)+2)
		}
	}
	return q.deltas
}

// TestDeltaPullsRebuildSnapshots: at the bench's n = 144, l = 100 and at
// small windows, over pull gaps of 1 to K+2, skipped intervals and a
// restart, every column a delta rebuilds is SnapshotInto's, and most pulls
// go as deltas.
func TestDeltaPullsRebuildSnapshots(t *testing.T) {
	for _, c := range []struct{ window, l, w, steps int }{{144, 100, 27, 600}, {8, 20, 3, 400}, {3, 40, 2, 200}} {
		deltas := runPulls(t, 5, c.window, c.l, c.w, c.steps, false)
		if deltas == 0 {
			t.Fatalf("n=%d l=%d: no pull went as a delta", c.window, c.l)
		}
	}
}

// FuzzDeltaPull is TestDeltaPullsRebuildSnapshots over fuzzed schedules,
// shapes and volumes up to ⌊(2⁵³−1)/n⌋.
func FuzzDeltaPull(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(16), uint8(3), false)
	f.Add(int64(2), uint8(1), uint8(4), uint8(1), true)
	f.Add(int64(3), uint8(40), uint8(64), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, window, l, w uint8, huge bool) {
		runPulls(t, seed, 1+int(window%64), 1+int(l%128), 1+int(w%8), 300, huge)
	})
}

// TestApplyRefusesBadDeltas: a delta since another interval than the held
// report's, one naming a time before that window, a flow the report has no
// column for or no R′, a refused volume, a base column its sums do not give
// and a count past the window each
// fail with ErrInput and leave the report as it was.
func TestApplyRefusesBadDeltas(t *testing.T) {
	const window, l = 8, 40 // K = 2
	gen, err := randproj.NewGenerator(randproj.Config{Seed: 3, SketchLen: l})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := NewRandProj(Config{FlowIDs: []int{0, 1}, WindowLen: window, Gen: gen})
	if err != nil {
		t.Fatal(err)
	}
	var base, delta Snapshot
	for tt := int64(1); tt <= 20; tt++ {
		if err := sk.Update(tt, []float64{float64(tt), 7}); err != nil {
			t.Fatal(err)
		}
		if tt == 18 {
			sk.SnapshotInto(&base)
		}
	}
	if !sk.DeltaInto(&delta, 18) {
		t.Fatal("no delta since 18")
	}
	a := NewApplier(gen, window, 2)
	for _, c := range []struct {
		name string
		edit func(rep, base *Snapshot)
	}{
		{"another base", func(rep, base *Snapshot) { base.Interval = 17 }},
		{"a time before the window", func(rep, _ *Snapshot) { rep.Deltas[0].Left[0] = 18 - window }},
		{"a flow with no base column", func(_, base *Snapshot) { base.FlowIDs[1] = 5 }},
		{"no base R′", func(_, base *Snapshot) { base.RowSumOf[1] = -1 }},
		{"a fraction", func(rep, _ *Snapshot) { rep.Sketches[1][0] = 0.5 }},
		{"a volume past 2⁵³/n", func(rep, _ *Snapshot) { rep.Sketches[0][0] = 1 << 51 }},
		{"a base column off its sums", func(_, base *Snapshot) { base.Sketches[0][3] = math.Nextafter(base.Sketches[0][3], 0) }},
		{"a window too full", func(_, base *Snapshot) { base.Counts[0], base.Means[0] = window, 0 }},
	} {
		var rep, b Snapshot
		copySnapshot(&rep, &delta)
		copySnapshot(&b, &base)
		c.edit(&rep, &b)
		var before Snapshot
		copySnapshot(&before, &rep)
		if err := a.Apply(&rep, &b); !errors.Is(err, ErrInput) {
			t.Fatalf("%s: Apply returned %v, want ErrInput", c.name, err)
		}
		if rep.Since != before.Since || len(rep.DeltaOf) != len(before.DeltaOf) || rep.Means[0] != before.Means[0] ||
			len(rep.Sketches[0]) != len(before.Sketches[0]) || len(rep.RowSums) != len(before.RowSums) {
			t.Fatalf("%s: a refused delta changed the report", c.name)
		}
	}
	if err := a.Apply(&delta, &base); err != nil {
		t.Fatal(err)
	}
	var want Snapshot
	sk.SnapshotInto(&want)
	sameBits(t, 20, &delta, &want)
}

// BenchmarkApply applies one monitor's delta of a pull gap of 1, 4 and
// K = 5 at the bench's n = 144, l = 100 and 27 flows (one flat-* monitor).
func BenchmarkApply(b *testing.B) {
	for _, gap := range []int64{1, 4, 5} {
		b.Run(fmt.Sprintf("gap=%d", gap), func(b *testing.B) { benchmarkApply(b, gap) })
	}
}

func benchmarkApply(b *testing.B, gap int64) {
	const window, l, w = 144, 100, 27
	gen, err := randproj.NewGenerator(randproj.Config{Seed: 1, SketchLen: l})
	if err != nil {
		b.Fatal(err)
	}
	flows := make([]int, w)
	for i := range flows {
		flows[i] = i
	}
	sk, err := NewRandProj(Config{FlowIDs: flows, WindowLen: window, Gen: gen})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	volumes := make([]float64, w)
	var base, delta, rep Snapshot
	for t := int64(1); t <= 2*window; t++ {
		for i := range volumes {
			volumes[i] = math.Round(1e6 * rng.Float64())
		}
		if err := sk.Update(t, volumes); err != nil {
			b.Fatal(err)
		}
		if t == 2*window-gap {
			sk.SnapshotInto(&base)
		}
	}
	if !sk.DeltaInto(&delta, 2*window-gap) {
		b.Fatal("no delta")
	}
	a := NewApplier(gen, window, w)
	b.ResetTimer()
	for range b.N {
		copySnapshot(&rep, &delta)
		if err := a.Apply(&rep, &base); err != nil {
			b.Fatal(err)
		}
	}
}
