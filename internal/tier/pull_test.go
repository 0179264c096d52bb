package tier

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streampca/internal/transport"
)

// registrantConn returns the tier's side of the connection id registered on.
func registrantConn(d *Downstream, id string) *transport.Conn {
	d.mu.Lock()
	defer d.mu.Unlock()
	for c, e := range d.regs {
		if e.id == id {
			return c
		}
	}
	return nil
}

// TestPullRoundsAreReused: back-to-back pulls on one Downstream run in one
// round, reused: each asks under a new request ID and folds its own answer.
func TestPullRoundsAreReused(t *testing.T) {
	d, _ := newDownstream(t, nil)
	a := attach(t, d, "a", []int{0, 1}, nil)
	var interval atomic.Int64
	a.setAnswer(func(p *peer, reqID uint64) { p.respond(reqID, "a", interval.Load(), p.flows) })
	var first *pullRound
	for iv := int64(1); iv <= 5; iv++ {
		interval.Store(iv)
		p := d.Pull(nil, nil)
		if len(p.Reports) != 1 || p.Reports[0].Interval != iv {
			t.Fatalf("pull %d kept %+v, want only its own answer", iv, p.Reports)
		}
		d.Release(p)
		d.mu.Lock()
		idle, live := slices.Clone(d.idle), len(d.rounds)
		d.mu.Unlock()
		if len(idle) != 1 || live != 0 {
			t.Fatalf("after pull %d: %d idle rounds and %d live, want 1 and 0", iv, len(idle), live)
		}
		if first == nil {
			first = idle[0]
		} else if idle[0] != first {
			t.Fatalf("pull %d ran in a new round", iv)
		}
	}
	a.mu.Lock()
	ids := slices.Clone(a.requests)
	a.mu.Unlock()
	slices.Sort(ids)
	if len(slices.Compact(ids)) != 5 {
		t.Fatalf("request IDs %v, want 5 distinct", ids)
	}
}

// TestLateAnswerNeverReachesTheNextPull: the answer to a pull that timed out
// arrives while the next pull, in the same round reused, waits; it is
// dropped, and only the next pull's own answer is folded.
func TestLateAnswerNeverReachesTheNextPull(t *testing.T) {
	d, _ := newDownstream(t, nil)
	a := attach(t, d, "a", []int{0, 1}, nil)
	a.setAnswer(func(p *peer, reqID uint64) {
		if p.asked() == 1 {
			return // let the first pull time out
		}
		p.respond(p.requests[0], "a", 7, p.flows) // the late answer to the first pull
		p.respond(reqID, "a", 9, p.flows)
	})
	p := d.Pull(nil, nil)
	if len(p.Reports) != 0 {
		t.Fatalf("the first pull kept %+v, want nothing", p.Reports)
	}
	d.Release(p)
	p = d.Pull(nil, nil)
	if len(p.Reports) != 1 || p.Reports[0].Interval != 9 {
		t.Fatalf("the second pull kept %+v, want only the report of interval 9 (its own answer)", p.Reports)
	}
}

// TestRetireDrainsAnswersRoutedToTheRound: an answer routed to a round after
// its timer fired and before it retired is drained with it and kept as its
// registrant's spare, and a timer that fired unread leaves nothing behind:
// the next pull, in the same round, waits its full timeout and folds only its
// own answer.
func TestRetireDrainsAnswersRoutedToTheRound(t *testing.T) {
	d, _ := newDownstream(t, nil)
	attach(t, d, "a", []int{0, 1}, func(p *peer, reqID uint64) {
		time.Sleep(20 * time.Millisecond) // a third of the timeout
		p.respond(reqID, "a", 9, p.flows)
	})
	conn := registrantConn(d, "a")
	d.mu.Lock()
	rd := d.takeRoundLocked()
	d.nextReq++
	rd.req.RequestID = d.nextReq
	rd.ch = make(chan response, 1)
	d.rounds[rd.req.RequestID] = rd
	d.mu.Unlock()
	late := &transport.SketchResponse{RequestID: rd.req.RequestID, MonitorID: "a", Report: report(7, []int{0, 1})}
	if !d.routeResponse(conn, late) {
		t.Fatal("the answer was not routed to its round")
	}
	rd.timer.Reset(time.Millisecond)
	time.Sleep(10 * time.Millisecond) // the timer fires; nobody reads it
	d.retire(rd)
	d.mu.Lock()
	spare, idle := d.links[conn].spare, slices.Clone(d.idle)
	d.mu.Unlock()
	if spare != late || len(idle) != 1 || idle[0] != rd {
		t.Fatalf("after retire: spare %p (the drained answer %p), idle %v (the round %p)", spare, late, idle, rd)
	}
	p := d.Pull(nil, nil)
	if len(p.Reports) != 1 || p.Reports[0].Interval != 9 {
		t.Fatalf("the next pull kept %+v, want only the report of interval 9 (its own answer)", p.Reports)
	}
}

// TestOverlappingPullsTakeTheirOwnRounds: pulls that run at once on one
// Downstream, as an aggregator's overlapping upstream requests do, each take
// a round of their own and fold every answer; afterwards no round is live
// and at most maxFree are kept.
func TestOverlappingPullsTakeTheirOwnRounds(t *testing.T) {
	d, _ := newDownstream(t, nil)
	attach(t, d, "a", []int{0, 1}, honest(4))
	attach(t, d, "b", []int{2, 3}, honest(4))
	for range 10 {
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := d.Pull(nil, nil)
				if len(p.Reports) != 2 || len(d.Uncovered(p)) != 0 {
					t.Errorf("an overlapping pull kept %d reports, left %v uncovered", len(p.Reports), d.Uncovered(p))
				}
				d.Release(p)
			}()
		}
		wg.Wait()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.rounds) != 0 || len(d.idle) > maxFree {
		t.Fatalf("%d rounds live and %d idle, want 0 and at most %d", len(d.rounds), len(d.idle), maxFree)
	}
}

// TestReleasedIntervalCycleAllocatesNothing: a volume report that completes
// an interval, and the sink handing the interval back, allocate nothing in
// steady state — also when the next interval opens before the last one is
// handed back, as it does behind a sink that unblocks its producer before it
// releases, which one kept accumulator could not cover.
func TestReleasedIntervalCycleAllocatesNothing(t *testing.T) {
	var delivered Interval
	d, _ := newDownstream(t, func(c *DownstreamConfig) {
		c.OnInterval = func(iv Interval) { delivered = iv }
	})
	attach(t, d, "a", []int{0, 1, 2, 3}, nil)
	conn := registrantConn(d, "a")
	v := transport.VolumeReport{MonitorID: "a", Volumes: []float64{1, 2, 3, 4}}
	var held Interval
	run := 0
	if avg := testing.AllocsPerRun(200, func() {
		run++
		if run%2 == 0 {
			d.ReleaseInterval(held)
		}
		v.Interval++
		d.addVolumes(conn, &v)
		if run%2 == 1 {
			d.ReleaseInterval(held)
		}
		if delivered.Index != v.Interval {
			t.Fatalf("interval %d was not delivered", v.Interval)
		}
		held = delivered
	}); avg != 0 {
		t.Fatalf("a report-and-release cycle allocates %v times, want 0", avg)
	}
}
