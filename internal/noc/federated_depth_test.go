package noc

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"streampca/internal/agg"
	"streampca/internal/monitor"
	"streampca/internal/sketch"
	"streampca/internal/transport"
)

// TestFederatedDepthTwoMatchesFlat proves federation depth is a deployment
// choice: monitors → 3 leaf aggregators → 1 mid aggregator → NOC must decide
// the TestFederatedMatchesFlatDecisions trace byte-identically to the flat
// 6-monitor topology (alarm flags, distances, thresholds, culprits), and
// every alarm must reach every monitor through both relays. The mid
// aggregator's uplink runs over transport.Pipe (AttachNOC); the leaf tier is
// startFederation pointed at the mid aggregator instead of the NOC.
func TestFederatedDepthTwoMatchesFlat(t *testing.T) {
	const n = testWindow + 40
	rows := genRows(n, testFlows, n-4)

	type received struct {
		mu     sync.Mutex
		alarms map[string][]transport.Alarm // by monitor ID
	}

	run := func(deep bool) ([]Decision, *received) {
		svc, decisions := startNOC(t, nocConfig())
		got := &received{alarms: map[string][]transport.Alarm{}}
		var mons []*monitor.Service
		if deep {
			mid, err := agg.New(agg.Config{
				ID:           "agg-mid",
				Family:       sketch.FamilyRandProj,
				NumFlows:     testFlows,
				WindowLen:    testWindow,
				SketchLen:    testSketch,
				Seed:         testSeed,
				FetchTimeout: 2 * time.Second,
				FetchRetries: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := mid.Serve("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = mid.Close() })
			nocEnd, midEnd := transport.Pipe()
			go svc.down.Handle(nocEnd)
			if err := mid.AttachNOC(midEnd); err != nil {
				t.Fatal(err)
			}
			fed := startFederation(t, mid.Addr(), 3, 6, testFlows, sketch.FamilyRandProj, testSketch, false,
				func(c *monitor.Config) {
					id := c.ID
					c.OnAlarm = func(a transport.Alarm) {
						got.mu.Lock()
						got.alarms[id] = append(got.alarms[id], a)
						got.mu.Unlock()
					}
				})
			mons = fed.mons
			// The NOC must have the mid tier's full flow union on record
			// before traffic flows: each leaf registration re-Hellos upward.
			deadline := time.Now().Add(3 * time.Second)
			for {
				regs := svc.down.Registrants()
				if len(regs) == 1 && regs[0].Flows == testFlows {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("NOC registrants %+v, want agg-mid owning %d flows", regs, testFlows)
				}
				time.Sleep(5 * time.Millisecond)
			}
		} else {
			mons = startMonitors(t, svc.Addr(), 6)
			waitMonitors(t, svc, 6)
		}
		out := make([]Decision, 0, n)
		for i := 0; i < n; i++ {
			iv := int64(i + 1)
			feedAssigned(t, mons, testFlows, iv, rows[i])
			out = append(out, nextDecision(t, decisions, iv))
		}
		if deep {
			// Alarm relays are asynchronous; wait for the last one to land
			// on every monitor before tearing the tiers down.
			want := 0
			for _, d := range out {
				if d.Result.Anomalous {
					want++
				}
			}
			deadline := time.Now().Add(3 * time.Second)
			for {
				got.mu.Lock()
				done := len(got.alarms) == len(mons)
				for _, as := range got.alarms {
					done = done && len(as) == want
				}
				got.mu.Unlock()
				if done {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("monitors received %+v, want %d alarms each", got.alarms, want)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		for _, m := range mons {
			_ = m.Close()
		}
		svc.Shutdown()
		return out, got
	}

	flat, _ := run(false)
	deep, got := run(true)

	var alarmed []Decision
	for i := range flat {
		f, g := flat[i], deep[i]
		if f.Result.Anomalous != g.Result.Anomalous ||
			f.Result.Distance != g.Result.Distance ||
			f.Result.Threshold != g.Result.Threshold ||
			f.Result.Refreshed != g.Result.Refreshed {
			t.Fatalf("interval %d diverged:\n flat %+v\n deep %+v", f.Interval, f.Result, g.Result)
		}
		if !reflect.DeepEqual(f.Identified, g.Identified) {
			t.Fatalf("interval %d: identifications diverged:\n flat %+v\n deep %+v", f.Interval, f.Identified, g.Identified)
		}
		if g.Degraded || g.Result.StaleFlows != 0 {
			t.Fatalf("depth-2 decision %d degraded with all peers alive: %+v", g.Interval, g)
		}
		if g.Result.Anomalous {
			alarmed = append(alarmed, g)
		}
	}
	if len(alarmed) == 0 {
		t.Fatal("the injected spike raised no alarm in either topology — the comparison is vacuous")
	}
	for id, as := range got.alarms {
		for i, a := range as {
			d := alarmed[i]
			if a.Interval != d.Interval || a.Distance != d.Result.Distance || a.Threshold != d.Result.Threshold ||
				!reflect.DeepEqual(a.Identified, wireIdentified(d.Identified)) {
				t.Fatalf("%s alarm %d = %+v, decision %+v / %+v", id, i, a, d.Result, d.Identified)
			}
		}
	}
}
