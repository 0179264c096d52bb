package noc

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestRefreshAllocatesLessThanOneSketchMatrix: a stale trip moves Ẑ through
// storage each tier keeps — the aggregators' merge destinations, the tier's
// per-registrant response buffers and pull rounds, the detector's workspace
// and its two models — so an interval that refreshes the model allocates less
// than one l×m Ẑ more than a quiet interval does, flat and behind 3
// aggregators, at flat-*'s m = 81, l = 100. The NOC recycles each interval's
// row, so flat, a quiet interval allocates at most 1 100 B and a refreshing
// one 2 300 B, the process's whole count: mostly the copy of the decision's
// vector Deployment queues (704 B) and the identification on alarm. Behind
// the 3 degraded aggregators, whose column caches reuse their copies of each
// report's R′, a refreshing interval allocates at most 2 600 B.
func TestRefreshAllocatesLessThanOneSketchMatrix(t *testing.T) {
	const m, l, minRefreshes = 81, 100, 20
	const flatQuiet, flatRefresh, fedRefresh = 1100, 2300, 2600
	for _, aggs := range []int{0, 3} {
		cfg := nocConfig()
		cfg.Detector.NumFlows, cfg.Detector.SketchLen = m, l
		topo := Topology{Monitors: 6}
		if aggs > 0 {
			topo.Aggregators, topo.Agg = aggs, testAgg
		}
		dep := deploy(t, cfg, topo)
		rng := rand.New(rand.NewSource(46))
		row := make([]float64, m)
		var refresh, quiet struct {
			n     int
			bytes uint64
		}
		var ms runtime.MemStats
		for i := 1; refresh.n < minRefreshes && i < 40*minRefreshes; i++ {
			// Rank-2 background; past the window, every 4th interval one
			// flow, a different one each time, spikes.
			f1, f2 := 1000+200*rng.NormFloat64(), 500+100*rng.NormFloat64()
			for j := range row {
				row[j] = math.Round(float64(j%3+1)*f1 + float64(j%4+1)*f2 + 10*rng.NormFloat64())
			}
			if i > testWindow && i%4 == 0 {
				row[(7*i)%m] += 5e4
			}
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			dec := step(t, dep, int64(i), row)
			runtime.ReadMemStats(&ms)
			// The first pulls after the window size the kept storage.
			if i <= testWindow+16 {
				continue
			}
			c := &quiet
			if dec.Result.Refreshed {
				c = &refresh
			}
			c.n++
			c.bytes += ms.TotalAlloc - before
		}
		dep.Close()
		if refresh.n < minRefreshes || quiet.n == 0 {
			t.Fatalf("%d aggregators: %d refreshing and %d quiet intervals measured, want %d and some",
				aggs, refresh.n, quiet.n, minRefreshes)
		}
		r, q := float64(refresh.bytes)/float64(refresh.n), float64(quiet.bytes)/float64(quiet.n)
		t.Logf("%d aggregators: a refreshing interval allocates %.0f B (%d), a quiet one %.0f B (%d)",
			aggs, r, refresh.n, q, quiet.n)
		if r-q >= l*m*8 {
			t.Errorf("%d aggregators: a refresh allocates %.0f B more than a quiet interval, at least one Ẑ (%d B)",
				aggs, r-q, l*m*8)
		}
		if aggs == 0 && (q > flatQuiet || r > flatRefresh) {
			t.Errorf("flat: a quiet interval allocates %.0f B (limit %d), a refreshing one %.0f B (limit %d)",
				q, flatQuiet, r, flatRefresh)
		}
		if aggs > 0 && r > fedRefresh {
			t.Errorf("%d degraded aggregators: a refreshing interval allocates %.0f B (limit %d)", aggs, r, fedRefresh)
		}
	}
}
