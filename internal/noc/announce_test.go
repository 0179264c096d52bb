package noc

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"streampca/internal/agg"
	"streampca/internal/core"
	"streampca/internal/monitor"
	"streampca/internal/obs"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
	"streampca/internal/tier"
)

// startAdoptingFederation is startFederation for services built with no
// protocol parameters: each aggregator adopts the NOC's announcement before
// it serves, and each monitor adopts its aggregator's re-announcement — the
// aggregator accepts its flows only under the parameters it adopted.
func startAdoptingFederation(t *testing.T, svc *Service, nAgg, nMon int) *federation {
	t.Helper()
	want := core.Params{
		Family: svc.cfg.Detector.Family, NumFlows: testFlows, WindowLen: testWindow,
		SketchLen: testSketch, Epsilon: svc.cfg.Epsilon, Seed: testSeed,
	}
	fed := &federation{}
	addrs := make([]string, nAgg)
	for i := range addrs {
		a, err := agg.New(agg.Config{
			ID:       "agg-" + string(rune('1'+i)),
			Pull:     tier.PullPolicy{Timeout: 2 * time.Second, Retries: 1},
			Degraded: tier.DegradedPolicy{Enabled: true, MaxStaleness: 1 << 40},
			Redial:   tier.RedialPolicy{Enabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = a.Close() })
		if err := a.Serve("127.0.0.1:0"); err == nil {
			t.Fatal("an aggregator served before it knew the protocol parameters")
		}
		if err := a.ConnectNOC(svc.Addr(), 2*time.Second); err != nil {
			t.Fatal(err)
		}
		if got := a.Params(); got != want {
			t.Fatalf("aggregator adopted %v, want the NOC's %v", got, want)
		}
		if err := a.Serve("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		fed.aggs = append(fed.aggs, a)
		addrs[i] = a.Addr()
	}
	for _, a := range fed.aggs {
		a.SetPeers(addrs, 1)
	}
	assign := make([][]int, nMon)
	for f := 0; f < testFlows; f++ {
		assign[f%nMon] = append(assign[f%nMon], f)
	}
	for i := range nMon {
		mon, err := monitor.New(monitor.Config{ID: "mon-" + string(rune('a'+i)), FlowIDs: assign[i], Candidates: addrs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = mon.Close() })
		if _, err := mon.Place(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		fed.mons = append(fed.mons, mon)
	}
	waitFor(t, "the aggregators' flow unions to cover every flow", func() bool {
		covered := 0
		for _, a := range fed.aggs {
			covered += len(a.FlowUnion())
		}
		return covered == testFlows
	})
	return fed
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestParameterLessTiersMatchPinned: aggregators and monitors built with no
// parameters, under a NOC that states ε = 0.3, run at the NOC's parameters
// and make the decisions of the same deployment with every service pinned to
// them — and a pinned monitor at another ε is refused by an aggregator that
// adopted 0.3.
func TestParameterLessTiersMatchPinned(t *testing.T) {
	const n = testWindow + 40
	const eps = 0.3
	rows := genRows(n, testFlows, n-4)
	run := func(adopt bool) []Decision {
		cfg := nocConfig()
		cfg.Epsilon = eps
		svc, decisions := startNOC(t, cfg)
		var fed *federation
		if adopt {
			fed = startAdoptingFederation(t, svc, 3, 6)
		} else {
			fed = startFederation(t, svc.Addr(), 3, 6, testFlows, sketch.FamilyRandProj, testSketch, false,
				func(c *monitor.Config) { c.Epsilon = eps })
		}
		waitMonitors(t, svc, 3)
		out := make([]Decision, 0, n)
		for i := range n {
			iv := int64(i + 1)
			feedAssigned(t, fed.mons, testFlows, iv, rows[i])
			out = append(out, nextDecision(t, decisions, iv))
		}
		if adopt {
			var log lockedBuffer
			stray, err := monitor.New(monitor.Config{
				ID: "stray", FlowIDs: []int{0}, WindowLen: testWindow, Epsilon: 0.05,
				Sketch: randproj.Config{Seed: testSeed, SketchLen: testSketch},
				Log:    slog.New(slog.NewTextHandler(&log, nil)),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = stray.Close() })
			if err := stray.Connect(fed.aggs[0].Addr(), 2*time.Second); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the refusal of a monitor at ε 0.05", func() bool {
				return strings.Contains(log.String(), "upstream rejected the registration")
			})
		}
		for _, m := range fed.mons {
			_ = m.Close()
		}
		svc.Shutdown()
		return out
	}
	pinned, adopted := run(false), run(true)
	alarms := 0
	for i := range pinned {
		p, a := pinned[i].Result, adopted[i].Result
		if p.Anomalous != a.Anomalous || p.Distance != a.Distance || p.Threshold != a.Threshold || p.Refreshed != a.Refreshed {
			t.Fatalf("interval %d diverged:\n pinned  %+v\n adopted %+v", i+1, p, a)
		}
		if p.Anomalous {
			alarms++
		}
	}
	if alarms == 0 {
		t.Fatal("no alarm in either run — the comparison is vacuous")
	}
}

// lockedBuffer is a bytes.Buffer a logger and the test share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRefusedRedialStops: a monitor pinned to another window than the NOC's,
// with two aggregator candidates and redial on, is refused by the first and
// then dials nothing more — neither candidate again — and logs the refusal
// once, over many redial periods.
func TestRefusedRedialStops(t *testing.T) {
	svc, _ := startNOC(t, nocConfig())
	var aggs []*agg.Service
	var addrs []string
	var regs []*obs.Registry
	for _, id := range []string{"agg-1", "agg-2"} {
		regs = append(regs, obs.NewRegistry())
		a, err := agg.New(agg.Config{ID: id, Obs: regs[len(regs)-1]})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = a.Close() })
		if err := a.ConnectNOC(svc.Addr(), 2*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := a.Serve("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		aggs, addrs = append(aggs, a), append(addrs, a.Addr())
	}
	var log lockedBuffer
	redial := tier.RedialPolicy{Enabled: true, Backoff: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond}
	mon, err := monitor.New(monitor.Config{
		ID: "mon-a", FlowIDs: []int{0, 1, 2}, WindowLen: testWindow + 1, Epsilon: 0.05,
		Sketch:     randproj.Config{Seed: testSeed, SketchLen: testSketch},
		Redial:     redial,
		Candidates: addrs,
		Log:        slog.New(slog.NewTextHandler(&log, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mon.Close() })
	if _, err := mon.Place(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(25 * redial.BackoffMax)
	total := int64(0)
	for i, a := range aggs {
		n := regs[i].Counter("streampca_agg_registrations_rejected_total", "").Value()
		if n > 1 {
			t.Errorf("%s refused the monitor %d times, want at most once", a.ID(), n)
		}
		total += n
	}
	if total != 1 {
		t.Errorf("%d refusals across the candidates, want 1", total)
	}
	if n := strings.Count(log.String(), "upstream rejected the registration"); n != 1 {
		t.Errorf("the monitor logged %d refusals, want 1:\n%s", n, log.String())
	}
}
