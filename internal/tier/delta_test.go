package tier

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"streampca/internal/core"
	"streampca/internal/sketch"
	"streampca/internal/transport"
)

// TestBadDeltaIsRefusedAndTheRetryAsksForSums: a pull asks a registrant for
// a delta since its last answer and applies it, to the bits of the
// registrant's SnapshotInto; a delta whose volume vh.CheckVolume refuses
// fails that round as invalid, applies nothing, and the retry asks since 0
// and takes the whole columns.
func TestBadDeltaIsRefusedAndTheRetryAsksForSums(t *testing.T) {
	const l = 40 // K = 2
	params := core.Params{Family: sketch.FamilyRandProj, NumFlows: testFlows, WindowLen: testWindow, SketchLen: l, Seed: testSeed}
	d, _ := newDownstream(t, func(c *DownstreamConfig) {
		c.Params = params
		c.Pull.Retries = 1
	})
	flows := []int{0, 1, 2, 3}
	corrupt := false
	mon := newDeltaMonitor(t, params, flows, func(rep *core.SketchReport) {
		if corrupt {
			rep.Sketches[2][0] = 1 << 50 // past 2⁵³/n
		}
	})
	h := hello("m", flows)
	h.SketchLen = l
	p := dial(t, d, h, mon.answer)
	waitFor(t, "registration of m", func() bool { return registered(d, "m") })

	pull := func(wantDelta, wantSums int) {
		t.Helper()
		pl := d.Pull(nil, nil)
		defer d.Release(pl)
		if len(pl.Reports) != 1 || pl.Forms.Delta != wantDelta || pl.Forms.Sums != wantSums {
			t.Fatalf("interval %d: %d reports, %+v columns; want one, %d delta and %d sums", mon.now, len(pl.Reports), pl.Forms, wantDelta, wantSums)
		}
		mon.check(t, &pl.Reports[0])
	}
	mon.advance(testWindow + 4)
	pull(0, len(flows)) // nothing kept: whole
	first := mon.now
	mon.advance(1)
	pull(len(flows), 0)
	mon.advance(2)
	corrupt = true
	pull(0, len(flows)) // the delta refused, the retry whole
	corrupt = false
	mon.advance(2)
	pull(len(flows), 0)
	p.mu.Lock()
	sinces := slices.Clone(p.sinces)
	p.mu.Unlock()
	if want := []int64{0, first, first + 1, 0, first + 3}; !slices.Equal(sinces, want) {
		t.Fatalf("requests asked since %v, want %v", sinces, want)
	}
}

// TestRelayedDeltasStartFromTheCopyAbove: two monitors behind a relaying
// tier, one a sketch ahead of the other, so the merged answer's interval is
// not the other's; an answer of the relaying tier that never arrives above
// (it released its pull all the same) makes the retry ask for whole
// columns, not a delta from a copy the relaying tier no longer holds; then
// pulls 1 interval apart go as deltas, and every column the upper tier
// assembles is its monitor's SnapshotInto, bit for bit.
func TestRelayedDeltasStartFromTheCopyAbove(t *testing.T) {
	const l = 40 // K = 2
	params := core.Params{Family: sketch.FamilyRandProj, NumFlows: testFlows, WindowLen: testWindow, SketchLen: l, Seed: testSeed}
	mid, _ := newDownstream(t, func(c *DownstreamConfig) { c.Params = params })
	up, _ := newDownstream(t, func(c *DownstreamConfig) {
		c.Params = params
		c.Pull.Retries = 1
	})
	flows := [][]int{{0, 1}, {2, 3}}
	mons := make([]*deltaMonitor, len(flows))
	for i, fs := range flows {
		mons[i] = newDeltaMonitor(t, params, fs, nil)
		h := hello(fmt.Sprint("m", i), fs)
		h.SketchLen = l
		dial(t, mid, h, mons[i].answer)
		waitFor(t, "registration of "+h.MonitorID, func() bool { return registered(mid, h.MonitorID) })
	}
	var drop atomic.Bool
	var merged core.SketchReport
	relay := func(p *peer, reqID uint64) {
		p.mu.Lock()
		since := p.sinces[len(p.sinces)-1]
		p.mu.Unlock()
		send := !drop.Swap(false)
		pl := mid.Relay(since, nil)
		defer mid.Release(pl)
		if err := sketch.MergeColumnsInto(&merged, pl.Reports, l); err != nil {
			t.Error(err)
			return
		}
		if send {
			p.send(transport.Envelope{Response: &transport.SketchResponse{RequestID: reqID, MonitorID: p.id, Report: merged}})
		}
	}
	h := hello("a", []int{0, 1, 2, 3})
	h.SketchLen = l
	a := dial(t, up, h, relay)
	waitFor(t, "registration of a", func() bool { return registered(up, "a") })

	pull := func(wantDelta int) {
		t.Helper()
		pl := up.Pull(nil, nil)
		defer up.Release(pl)
		if len(pl.Reports) != 1 || pl.Forms.Delta != wantDelta {
			t.Fatalf("%d reports, %+v columns; want one and %d delta", len(pl.Reports), pl.Forms, wantDelta)
		}
		for _, m := range mons {
			m.check(t, &pl.Reports[0])
		}
	}
	mons[0].advance(testWindow + 5)
	mons[1].advance(testWindow + 4)
	pull(0)
	ahead := mons[0].now
	// The relaying tier asks the monitor behind for whole columns, the one
	// ahead for a delta, and releases its pull; its answer is lost, and the
	// retry has to ask it since 0.
	mons[1].advance(1)
	drop.Store(true)
	pull(0)
	for range 4 {
		mons[0].advance(1)
		mons[1].advance(1)
		pull(len(flows[0]) + len(flows[1]))
	}
	a.mu.Lock()
	sinces := slices.Clone(a.sinces)
	a.mu.Unlock()
	if want := []int64{0, ahead, 0, ahead, ahead + 1, ahead + 2, ahead + 3}; !slices.Equal(sinces, want) {
		t.Fatalf("the relaying tier was asked since %v, want %v", sinces, want)
	}
}

// deltaMonitor is a randproj monitor behind a test peer: it answers a
// request since 0 with SnapshotInto and any other with DeltaInto where it
// can; corrupt, when set, spoils a delta it sends.
type deltaMonitor struct {
	mon     *core.Monitor
	flows   []int
	now     int64
	corrupt func(rep *core.SketchReport)
}

func newDeltaMonitor(t *testing.T, params core.Params, flows []int, corrupt func(*core.SketchReport)) *deltaMonitor {
	t.Helper()
	mon, err := params.NewMonitor(flows)
	if err != nil {
		t.Fatal(err)
	}
	return &deltaMonitor{mon: mon, flows: flows, corrupt: corrupt}
}

// advance feeds the monitor k more intervals of whole-byte volumes.
func (m *deltaMonitor) advance(k int) {
	for range k {
		m.now++
		vols := make([]float64, len(m.flows))
		for i, f := range m.flows {
			vols[i] = float64(1000*f + int(m.now*m.now)%97)
		}
		if err := m.mon.Update(m.now, vols); err != nil {
			panic(err)
		}
	}
}

func (m *deltaMonitor) answer(p *peer, reqID uint64) {
	p.mu.Lock()
	since := p.sinces[len(p.sinces)-1]
	p.mu.Unlock()
	var rep core.SketchReport
	if since == 0 || !m.mon.DeltaInto(&rep, since) {
		m.mon.SnapshotInto(&rep)
	} else if m.corrupt != nil {
		m.corrupt(&rep)
	}
	p.send(transport.Envelope{Response: &transport.SketchResponse{RequestID: reqID, MonitorID: p.id, Report: rep}})
}

// check requires got to hold each of the monitor's flows with the column,
// mean, count and R′ of its SnapshotInto, bit for bit.
func (m *deltaMonitor) check(t *testing.T, got *core.SketchReport) {
	t.Helper()
	var want core.SketchReport
	m.mon.SnapshotInto(&want)
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	if len(got.DeltaOf) != 0 {
		t.Fatalf("interval %d: the pull left delta columns %v", m.now, got.DeltaOf)
	}
	for j, f := range want.FlowIDs {
		i := slices.Index(got.FlowIDs, f)
		if i < 0 {
			t.Fatalf("interval %d: flow %d missing", m.now, f)
		}
		if !same(got.Sketches[i], want.Sketches[j]) || !same(got.RowSum(i), want.RowSum(j)) ||
			math.Float64bits(got.Means[i]) != math.Float64bits(want.Means[j]) || got.Counts[i] != want.Counts[j] {
			t.Fatalf("interval %d flow %d: pulled count %d, μ %v, ẑ %v, R′ %v; want %d, %v, %v, %v", m.now, f,
				got.Counts[i], got.Means[i], got.Sketches[i], got.RowSum(i), want.Counts[j], want.Means[j], want.Sketches[j], want.RowSum(j))
		}
	}
}
