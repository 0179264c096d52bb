package noc

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"streampca/internal/agg"
	"streampca/internal/monitor"
	"streampca/internal/obs"
	"streampca/internal/tier"
)

// testAgg configures the aggregators of the federated tests.
var testAgg = agg.Config{
	Pull:     tier.PullPolicy{Timeout: 2 * time.Second, Retries: 1},
	Degraded: tier.DegradedPolicy{Enabled: true, MaxStaleness: 1 << 40},
	Redial:   tier.RedialPolicy{Enabled: true},
}

// monitorsAcross sums the registered monitor count over the aggregators.
func monitorsAcross(aggs []*agg.Service) int {
	n := 0
	for _, a := range aggs {
		n += len(a.Monitors())
	}
	return n
}

// genRows pre-generates identical traffic for differential runs: rank-2
// background plus a burst of large spikes near the end so the alarm path is
// compared too, not just the quiet path. The burst rotates its direction
// each interval — a single spiked interval can be absorbed wholesale by the
// rank-2 refresh (it becomes a principal component and leaves no residual),
// but the refresh can only absorb one direction, so the following
// differently-aimed spikes alarm decisively.
func genRows(n, numFlows int, spikeAt int) [][]float64 {
	rng := rand.New(rand.NewSource(777))
	rows := make([][]float64, n)
	for i := range rows {
		f1 := 1000 + 200*rng.NormFloat64()
		f2 := 500 + 100*rng.NormFloat64()
		row := make([]float64, numFlows)
		for j := range row {
			w1 := float64(j%3) + 1
			w2 := float64(j%4) + 1
			row[j] = w1*f1 + w2*f2 + 10*rng.NormFloat64()
		}
		if i >= spikeAt && i < spikeAt+4 {
			k := i - spikeAt
			row[(2*k)%numFlows] += 5e5
			row[(2*k+1)%numFlows] += 3e5
		}
		rows[i] = row
	}
	return rows
}

// TestFederatedMatchesFlatDecisions is the correctness bar of the federated
// tier: the same traffic driven through 3 aggregators × 6 monitors must
// yield byte-identical alarm decisions to the flat 6-monitor topology,
// because randproj sketches over disjoint flow shards merge by exact column
// union (sketch linearity, Theorem 1). Both runs carry the oracle
// (CheckModel-backed) self-check, which must run and stay violation-free. It
// runs at l > m, where the NOC solves the m×m Gram, and at l < m, where it
// solves the l×l ẐẐᵀ.
func TestFederatedMatchesFlatDecisions(t *testing.T) {
	const n = testWindow + 40
	for _, shape := range []struct{ m, l int }{{testFlows, testSketch}, {48, 16}} {
		t.Run(fmt.Sprintf("m=%d/l=%d", shape.m, shape.l), func(t *testing.T) {
			rows := genRows(n, shape.m, n-4)
			run := func(federated bool) ([]Decision, *obs.Registry) {
				reg := obs.NewRegistry()
				cfg := nocConfig()
				cfg.Detector.NumFlows, cfg.Detector.SketchLen = shape.m, shape.l
				cfg.Obs = reg
				cfg.SelfCheckEvery = 16
				topo := Topology{Monitors: 6}
				if federated {
					topo.Aggregators, topo.Agg = 3, testAgg
				}
				dep := deploy(t, cfg, topo)
				out := make([]Decision, 0, n)
				for i := 0; i < n; i++ {
					out = append(out, step(t, dep, int64(i+1), rows[i]))
				}
				dep.Close()
				return out, reg
			}

			flat, flatReg := run(false)
			fed, fedReg := run(true)

			alarms := 0
			for i := range flat {
				f, g := flat[i], fed[i]
				if f.Result.Anomalous != g.Result.Anomalous ||
					f.Result.Distance != g.Result.Distance ||
					f.Result.Threshold != g.Result.Threshold ||
					f.Result.Refreshed != g.Result.Refreshed {
					t.Fatalf("interval %d diverged:\n flat %+v\n fed  %+v", f.Interval, f.Result, g.Result)
				}
				if g.Degraded || g.Result.StaleFlows != 0 {
					t.Fatalf("federated decision %d degraded with all peers alive: %+v", g.Interval, g)
				}
				if f.Result.Anomalous {
					alarms++
				}
			}
			if alarms == 0 {
				t.Fatal("the injected spike raised no alarm in either topology — the comparison is vacuous")
			}
			for name, reg := range map[string]*obs.Registry{"flat": flatReg, "federated": fedReg} {
				if c := reg.Counter("streampca_noc_oracle_checks_total", "").Value(); c == 0 {
					t.Fatalf("%s run: the oracle checked no model", name)
				}
				if v := reg.Counter("streampca_noc_oracle_violations_total", "").Value(); v != 0 {
					t.Fatalf("%s run: %d oracle violations", name, v)
				}
			}
		})
	}
}

// TestFederatedFDOneMonitorPerAggMatchesFlat pins the FD pass-through
// guarantee: with exactly one monitor per aggregator, sketch.MergeColumns is a
// verbatim deep copy, so even the non-linear FD family is byte-identical to
// the flat topology. (Multi-monitor FD shards merge per aggregator and
// legitimately differ from flat — DESIGN.md §16.)
func TestFederatedFDOneMonitorPerAggMatchesFlat(t *testing.T) {
	const n = testWindow + 24
	rows := genRows(n, fdTestFlows, n-4)

	run := func(federated bool) []Decision {
		topo := Topology{Monitors: 3}
		if federated {
			// Monitor i registers with aggregator i only.
			topo.Aggregators, topo.Agg = 3, testAgg
			topo.Monitor = func(i int, c *monitor.Config) { c.Candidates = c.Candidates[i : i+1] }
		}
		dep := deploy(t, fdNocConfig(), topo)
		out := make([]Decision, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, step(t, dep, int64(i+1), rows[i]))
		}
		dep.Close()
		return out
	}

	flat := run(false)
	fed := run(true)
	for i := range flat {
		f, g := flat[i], fed[i]
		if f.Result.Anomalous != g.Result.Anomalous ||
			f.Result.Distance != g.Result.Distance ||
			f.Result.Threshold != g.Result.Threshold {
			t.Fatalf("interval %d diverged:\n flat %+v\n fed  %+v", f.Interval, f.Result, g.Result)
		}
	}
}

// TestChaosAggregatorFailover kills one of three aggregators mid-run. The
// NOC must keep deciding (the dead shard's flows come from the PR-3
// degraded caches, flagged on the decision), and the orphaned monitors must
// re-place themselves onto the survivors via the pushed shard map — after
// which the survivors' grown flow unions cover the whole network again and
// decisions return to non-degraded.
func TestChaosAggregatorFailover(t *testing.T) {
	cfg := nocConfig()
	cfg.Pull.Timeout = 500 * time.Millisecond
	cfg.Degraded = tier.DegradedPolicy{Enabled: true, MaxStaleness: 1 << 40}
	dep := deploy(t, cfg, Topology{Aggregators: 3, Monitors: 6, Agg: testAgg, Monitor: func(_ int, c *monitor.Config) {
		// Big enough that the kill-to-failover window spans a few fed
		// intervals (the degraded phase below), small enough to converge
		// fast once asserted.
		c.Redial = tier.RedialPolicy{Enabled: true, Backoff: 300 * time.Millisecond, BackoffMax: 300 * time.Millisecond}
	}})
	svc, aggs := dep.NOC, dep.Aggregators

	rng := rand.New(rand.NewSource(99))
	var interval int64
	for i := 0; i < testWindow+5; i++ {
		interval++
		step(t, dep, interval, trafficRow(rng, interval))
	}
	if !svc.HasModel() {
		t.Fatal("warmup must have built a model")
	}

	// Kill the first aggregator that owns at least one monitor.
	victim := -1
	for i, a := range aggs {
		if len(a.Monitors()) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no aggregator owns a monitor")
	}
	orphans := len(aggs[victim].Monitors())
	lostFlows := len(aggs[victim].FlowUnion())
	_ = aggs[victim].Close()
	waitMonitors(t, svc, 2)

	// Degraded phase: the orphans are still backing off, so their flows are
	// missing and must come from the NOC's volume cache.
	interval++
	sawStale := 0
	row := trafficRow(rng, interval)
	for i := range dep.Monitors {
		_ = dep.Report(i, interval, row) // an orphan's link is down: the NOC covers its flows
	}
	d := nextDecision(t, dep.decisions, interval)
	if !d.Degraded || d.Result.StaleFlows != lostFlows {
		t.Fatalf("kill-window decision: degraded=%v stale=%d, want true/%d",
			d.Degraded, d.Result.StaleFlows, lostFlows)
	}
	sawStale = d.Result.StaleFlows

	// Failover: every orphan must land on a survivor, and the survivors'
	// unions must cover the whole flow space again.
	survivors := append([]*agg.Service(nil), aggs[:victim]...)
	survivors = append(survivors, aggs[victim+1:]...)
	deadline := time.Now().Add(10 * time.Second)
	for {
		covered := 0
		for _, a := range survivors {
			covered += len(a.FlowUnion())
		}
		if monitorsAcross(survivors) == 6 && covered == testFlows {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover incomplete: %d monitors on survivors, %d flows covered",
				monitorsAcross(survivors), covered)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Recovery phase: the degraded flags live on the in-force model and only
	// clear at the next sketch refresh, so quiet traffic would report the
	// kill-window model forever. Spike each recovery interval (rotating the
	// direction so refresh absorption can't mute later rounds) to force a
	// threshold crossing — the refreshed model, rebuilt from full live
	// coverage, must come back non-degraded.
	recovered := false
	for r := 0; r < 10 && !recovered; r++ {
		interval++
		row := trafficRow(rng, interval)
		row[(2*r)%testFlows] += 5e5
		for i := range dep.Monitors {
			// Retry: a just-failed-over monitor can race its re-registration.
			var err error
			for a := 0; a < 50; a++ {
				if err = dep.Report(i, interval, row); err == nil {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			if err != nil {
				t.Fatalf("monitor %d never recovered: %v", i, err)
			}
		}
		d := nextDecision(t, dep.decisions, interval)
		recovered = !d.Degraded && d.Result.StaleFlows == 0
	}
	if !recovered {
		t.Fatalf("decisions never returned to non-degraded after failover (%d orphans, %d stale flows seen)",
			orphans, sawStale)
	}
}
