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
	"streampca/internal/randproj"
	"streampca/internal/sketch"
	"streampca/internal/tier"
)

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
// parameters run at the NOC's parameters and make the decisions of the same
// deployment with every service pinned to them — and a pinned monitor at
// another seed is refused by an aggregator that adopted the NOC's.
func TestParameterLessTiersMatchPinned(t *testing.T) {
	const n = testWindow + 40
	rows := genRows(n, testFlows, n-4)
	run := func(adopt bool) []Decision {
		cfg := nocConfig()
		topo := Topology{Aggregators: 3, Monitors: 6, Agg: testAgg}
		if !adopt {
			topo.Agg.Family, topo.Agg.NumFlows, topo.Agg.WindowLen = sketch.FamilyRandProj, testFlows, testWindow
			topo.Agg.SketchLen, topo.Agg.Seed = testSketch, testSeed
			topo.Monitor = func(_ int, c *monitor.Config) {
				c.WindowLen = testWindow
				c.Sketch = randproj.Config{Seed: testSeed, SketchLen: testSketch}
			}
		}
		dep := deploy(t, cfg, topo)
		if adopt {
			bare, err := agg.New(agg.Config{ID: "bare"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = bare.Close() })
			if err := bare.Serve("127.0.0.1:0"); err == nil {
				t.Fatal("an aggregator served before it knew the protocol parameters")
			}
			want := core.Params{
				Family: cfg.Detector.Family, NumFlows: testFlows, WindowLen: testWindow,
				SketchLen: testSketch, Seed: testSeed,
			}
			for _, a := range dep.Aggregators {
				if got := a.Params(); got != want {
					t.Fatalf("aggregator adopted %v, want the NOC's %v", got, want)
				}
			}
		}
		out := make([]Decision, 0, n)
		for i := range n {
			out = append(out, step(t, dep, int64(i+1), rows[i]))
		}
		if adopt {
			var log lockedBuffer
			stray, err := monitor.New(monitor.Config{
				ID: "stray", FlowIDs: []int{0}, WindowLen: testWindow,
				Sketch: randproj.Config{Seed: testSeed + 1, SketchLen: testSketch},
				Log:    slog.New(slog.NewTextHandler(&log, nil)),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = stray.Close() })
			if err := stray.Connect(dep.Aggregators[0].Addr(), 2*time.Second); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the refusal of a monitor at another seed", func() bool {
				return strings.Contains(log.String(), "upstream rejected the registration")
			})
		}
		dep.Close()
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
	dep := deploy(t, nocConfig(), Topology{Aggregators: 2, Monitors: 1})
	var addrs []string
	for _, a := range dep.Aggregators {
		addrs = append(addrs, a.Addr())
	}
	var log lockedBuffer
	redial := tier.RedialPolicy{Enabled: true, Backoff: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond}
	mon, err := monitor.New(monitor.Config{
		ID: "stray", FlowIDs: []int{0, 1, 2}, WindowLen: testWindow + 1,
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
	for _, a := range dep.Aggregators {
		n := a.Registry().Counter("streampca_agg_registrations_rejected_total", "").Value()
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
