package noc

import (
	"math/rand"
	"testing"
	"time"

	"streampca/internal/agg"
	"streampca/internal/monitor"
	"streampca/internal/obs"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
)

// federation is one running aggregator tier plus its monitors.
type federation struct {
	aggs []*agg.Service
	mons []*monitor.Service
}

// startFederation boots nAgg aggregators fronting nocAddr and nMon monitors
// (striping numFlows flows f%nMon). With pinOneToOne false each monitor
// registers with its rendezvous-preferred aggregator (placement may be
// uneven — that is the point of hashing); with true (requires nMon == nAgg)
// monitor i is pinned to aggregator i, which forces single-input merges —
// the FD pass-through configuration. family/sketchParam/seed must match the
// NOC's detector.
func startFederation(t *testing.T, nocAddr string, nAgg, nMon, numFlows int,
	family sketch.Family, sketchParam int, pinOneToOne bool, monCfg func(*monitor.Config)) *federation {
	t.Helper()
	fed := &federation{}
	addrs := make([]string, nAgg)
	for i := 0; i < nAgg; i++ {
		a, err := agg.New(agg.Config{
			ID:           "agg-" + string(rune('1'+i)),
			Family:       family,
			NumFlows:     numFlows,
			WindowLen:    testWindow,
			SketchLen:    sketchParam,
			Seed:         testSeed,
			FetchTimeout: 2 * time.Second,
			FetchRetries: 1,
			Degraded:     agg.DegradedPolicy{Enabled: true, MaxStaleness: 1 << 40},
			Reconnect:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Serve("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = a.Close() })
		fed.aggs = append(fed.aggs, a)
		addrs[i] = a.Addr()
	}
	for _, a := range fed.aggs {
		a.SetPeers(addrs, 1)
		if err := a.ConnectNOC(nocAddr, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	assign := make([][]int, nMon)
	for f := 0; f < numFlows; f++ {
		assign[f%nMon] = append(assign[f%nMon], f)
	}
	for i := 0; i < nMon; i++ {
		cfg := monitor.Config{
			ID:         "mon-" + string(rune('a'+i)),
			Family:     family,
			FlowIDs:    assign[i],
			WindowLen:  testWindow,
			Epsilon:    0.05,
			Sketch:     randproj.Config{Seed: testSeed, SketchLen: sketchParam},
			FDEll:      sketchParam,
			Candidates: addrs,
		}
		if monCfg != nil {
			monCfg(&cfg)
		}
		svc, err := monitor.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		home := agg.Rendezvous(cfg.ID, addrs)[0]
		if pinOneToOne {
			if nMon != nAgg {
				t.Fatalf("pinOneToOne needs nMon == nAgg, got %d/%d", nMon, nAgg)
			}
			home = addrs[i]
		}
		if err := svc.Connect(home, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = svc.Close() })
		fed.mons = append(fed.mons, svc)
	}
	// Every flow must be claimed upstream before traffic flows: each
	// aggregator re-hellos as monitors register, so poll the coverage.
	deadline := time.Now().Add(3 * time.Second)
	for {
		covered := 0
		for _, a := range fed.aggs {
			covered += len(a.FlowUnion())
		}
		if covered == numFlows {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flow unions cover %d of %d flows", covered, numFlows)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fed
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

// feedAssigned reports one interval through monitors striped f%len(mons).
func feedAssigned(t *testing.T, mons []*monitor.Service, numFlows int, interval int64, row []float64) {
	t.Helper()
	for i, mon := range mons {
		var local []float64
		for f := i; f < numFlows; f += len(mons) {
			local = append(local, row[f])
		}
		if err := mon.ReportInterval(interval, local); err != nil {
			t.Fatalf("monitor %d interval %d: %v", i, interval, err)
		}
	}
}

// TestFederatedMatchesFlatDecisions is the correctness bar of the federated
// tier: the same traffic driven through 3 aggregators × 6 monitors must
// yield byte-identical alarm decisions to the flat 6-monitor topology,
// because randproj sketches over disjoint flow shards merge by exact column
// union (sketch linearity, Theorem 1). Both runs carry the oracle
// (CheckModel-backed) self-check, which must stay violation-free.
func TestFederatedMatchesFlatDecisions(t *testing.T) {
	const n = testWindow + 40
	rows := genRows(n, testFlows, n-4)

	run := func(federated bool) ([]Decision, *obs.Registry) {
		reg := obs.NewRegistry()
		cfg := nocConfig()
		cfg.Obs = reg
		cfg.SelfCheckEvery = 16
		svc, decisions := startNOC(t, cfg)
		var mons []*monitor.Service
		if federated {
			fed := startFederation(t, svc.Addr(), 3, 6, testFlows, sketch.FamilyRandProj, testSketch, false, nil)
			mons = fed.mons
			waitMonitors(t, svc, 3) // the NOC sees 3 aggregator registrants
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
		for _, m := range mons {
			_ = m.Close()
		}
		svc.Shutdown()
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
		if v := reg.Counter("streampca_noc_oracle_violations_total", "").Value(); v != 0 {
			t.Fatalf("%s run: %d oracle violations", name, v)
		}
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
		svc, decisions := startNOC(t, fdNocConfig())
		var mons []*monitor.Service
		if federated {
			fed := startFederation(t, svc.Addr(), 3, 3, fdTestFlows, sketch.FamilyFD, testFDEll, true, nil)
			mons = fed.mons
		} else {
			mons = startFDMonitors(t, svc.Addr(), 3)
		}
		waitMonitors(t, svc, 3)
		out := make([]Decision, 0, n)
		for i := 0; i < n; i++ {
			iv := int64(i + 1)
			feedAssigned(t, mons, fdTestFlows, iv, rows[i])
			out = append(out, nextDecision(t, decisions, iv))
		}
		for _, m := range mons {
			_ = m.Close()
		}
		svc.Shutdown()
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
	cfg.FetchTimeout = 500 * time.Millisecond
	cfg.Degraded = DegradedPolicy{Enabled: true, MaxStaleness: 1 << 40}
	svc, decisions := startNOC(t, cfg)
	fed := startFederation(t, svc.Addr(), 3, 6, testFlows, sketch.FamilyRandProj, testSketch, false,
		func(c *monitor.Config) {
			c.Reconnect = true
			// Big enough that the kill-to-failover window spans a few fed
			// intervals (the degraded phase below), small enough to converge
			// fast once asserted.
			c.ReconnectBackoff = 300 * time.Millisecond
			c.ReconnectBackoffMax = 300 * time.Millisecond
		})
	waitMonitors(t, svc, 3)

	rng := rand.New(rand.NewSource(99))
	var interval int64
	for i := 0; i < testWindow+5; i++ {
		interval++
		feedAssigned(t, fed.mons, testFlows, interval, trafficRow(rng, interval))
		nextDecision(t, decisions, interval)
	}
	if !svc.HasModel() {
		t.Fatal("warmup must have built a model")
	}

	// Kill the first aggregator that owns at least one monitor.
	victim := -1
	for i, a := range fed.aggs {
		if len(a.Monitors()) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no aggregator owns a monitor")
	}
	orphans := len(fed.aggs[victim].Monitors())
	lostFlows := len(fed.aggs[victim].FlowUnion())
	_ = fed.aggs[victim].Close()
	waitMonitors(t, svc, 2)

	// Degraded phase: the orphans are still backing off, so their flows are
	// missing and must come from the NOC's volume cache.
	interval++
	sawStale := 0
	for i, mon := range fed.mons {
		var local []float64
		for f := i; f < testFlows; f += len(fed.mons) {
			local = append(local, trafficRow(rng, interval)[f])
		}
		if err := mon.ReportInterval(interval, local); err != nil {
			continue // orphaned monitor, link down — the NOC covers its flows
		}
	}
	d := nextDecision(t, decisions, interval)
	if !d.Degraded || d.Result.StaleFlows != lostFlows {
		t.Fatalf("kill-window decision: degraded=%v stale=%d, want true/%d",
			d.Degraded, d.Result.StaleFlows, lostFlows)
	}
	sawStale = d.Result.StaleFlows

	// Failover: every orphan must land on a survivor, and the survivors'
	// unions must cover the whole flow space again.
	survivors := append([]*agg.Service(nil), fed.aggs[:victim]...)
	survivors = append(survivors, fed.aggs[victim+1:]...)
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
		for i, mon := range fed.mons {
			var local []float64
			for f := i; f < testFlows; f += len(fed.mons) {
				local = append(local, row[f])
			}
			// Retry: a just-failed-over monitor can race its re-registration.
			var err error
			for a := 0; a < 50; a++ {
				if err = mon.ReportInterval(interval, local); err == nil {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			if err != nil {
				t.Fatalf("monitor %d never recovered: %v", i, err)
			}
		}
		d := nextDecision(t, decisions, interval)
		recovered = !d.Degraded && d.Result.StaleFlows == 0
	}
	if !recovered {
		t.Fatalf("decisions never returned to non-degraded after failover (%d orphans, %d stale flows seen)",
			orphans, sawStale)
	}
}
