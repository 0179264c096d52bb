package noc

// Chaos end-to-end tests: fault-injected deployments exercising the
// retry/backoff fetch path, the per-monitor circuit breaker, degraded-mode
// operation on cached state, and monitor auto-reconnect. All faults come
// from internal/faults plans installed on the NOC's accepted connections
// (Config.Faults) or from killing monitors outright.

import (
	"math/rand"
	"testing"
	"time"

	"streampca/internal/faults"
	"streampca/internal/monitor"
	"streampca/internal/obs"
	"streampca/internal/randproj"
	"streampca/internal/tier"
	"streampca/internal/transport"
)

// chaosConfig is nocConfig tuned for fast fault handling in tests.
func chaosConfig() Config {
	cfg := nocConfig()
	cfg.Pull.Timeout = 300 * time.Millisecond
	cfg.Pull.Retries = 3
	cfg.Pull.Backoff = 10 * time.Millisecond
	cfg.Pull.BackoffMax = 50 * time.Millisecond
	cfg.Degraded = tier.DegradedPolicy{Enabled: true} // MaxStaleness -> window/4 = 16
	return cfg
}

// chaosRows pre-generates the interval volume vectors so a no-fault twin
// deployment can replay the identical trace.
func chaosRows(seed int64, total int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, total)
	for i := range rows {
		rows[i] = trafficRow(rng, int64(i+1))
	}
	return rows
}

// feedAlive pushes one interval through the monitors whose alive flag is
// set, preserving the round-robin flow layout of feedInterval.
func feedAlive(t *testing.T, mons []*monitor.Service, alive []bool, interval int64, volumes []float64) {
	t.Helper()
	for i, mon := range mons {
		if !alive[i] {
			continue
		}
		var local []float64
		for f := i; f < testFlows; f += len(mons) {
			local = append(local, volumes[f])
		}
		if err := mon.ReportInterval(interval, local); err != nil {
			t.Fatalf("monitor %d interval %d: %v", i, interval, err)
		}
	}
}

func waitMonitors(t *testing.T, svc *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for len(svc.Monitors()) != n {
		if time.Now().After(deadline) {
			t.Fatalf("monitors = %v, want %d", svc.Monitors(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosMonitorLossDegradedRecovery is the headline scenario: one of
// three monitors dies mid-run. The NOC must keep emitting a decision for
// every interval (flagged degraded, missing volumes from cache), serve an
// anomaly-triggered model rebuild from the sketch cache, and return to
// healthy non-degraded decisions once a replacement registers. The
// post-recovery alarm verdicts must match a no-fault twin fed the same
// trace.
func TestChaosMonitorLossDegradedRecovery(t *testing.T) {
	const (
		healthyEnd  = testWindow + 2 // 1..66 with all monitors
		outageEnd   = healthyEnd + 5 // 67..71 with monitor 1 dead
		total       = 80
		anomalyDown = int64(healthyEnd + 3) // 69: during the outage
		anomalyUp   = int64(outageEnd + 5)  // 76: after recovery
	)
	rows := chaosRows(99, total)
	// Moderate structure-breaking shifts: large enough to clear the
	// threshold, small enough not to hijack a principal component once the
	// lazy refresh absorbs the interval.
	rows[anomalyDown-1][2] += 4000
	rows[anomalyDown-1][7] += 3000
	// The post-recovery shift avoids the replacement monitor's flows
	// (1, 4, 7): its sketch window covers only a few intervals, so a shift
	// there would dominate its variance and hijack a component.
	rows[anomalyUp-1][2] += 4000
	rows[anomalyUp-1][6] += 3000

	svc, decisions := startNOC(t, chaosConfig())
	mons := startMonitors(t, svc.Addr(), 3)
	waitMonitors(t, svc, 3)
	alive := []bool{true, true, true}

	var interval int64
	for ; interval < healthyEnd; interval++ {
		feedAlive(t, mons, alive, interval+1, rows[interval])
		d := nextDecision(t, decisions, interval+1)
		if d.Degraded {
			t.Fatalf("interval %d degraded with all monitors up", interval+1)
		}
	}

	// Kill monitor 1 (flows 1, 4, 7).
	if err := mons[1].Close(); err != nil {
		t.Fatal(err)
	}
	alive[1] = false
	waitMonitors(t, svc, 2)

	for ; interval < outageEnd; interval++ {
		iv := interval + 1
		feedAlive(t, mons, alive, iv, rows[interval])
		d := nextDecision(t, decisions, iv)
		if !d.Degraded || d.StaleFlows != 3 {
			t.Fatalf("outage interval %d: degraded=%t stale=%d, want degraded with 3 stale flows",
				iv, d.Degraded, d.StaleFlows)
		}
		if iv == anomalyDown {
			if !d.Result.Anomalous {
				t.Fatalf("interval %d: injected anomaly not flagged during outage", iv)
			}
			if !d.Result.Degraded || d.Result.StaleFlows != 3 {
				t.Fatalf("interval %d: model degraded=%t stale=%d, want stale-sketch rebuild",
					iv, d.Result.Degraded, d.Result.StaleFlows)
			}
		}
	}
	if got := svc.met.staleFlows.Value(); got != 3 {
		t.Fatalf("stale_flows gauge = %v after degraded fetch, want 3", got)
	}
	if svc.met.fetchRetries.Value() == 0 {
		t.Fatal("fetch_retries_total must reflect re-request rounds")
	}
	if got := svc.met.degraded.Value(); got < 5 {
		t.Fatalf("degraded_decisions_total = %d, want >= 5", got)
	}
	if got := svc.met.fetchErrors.Value(); got != 0 {
		t.Fatalf("fetch_errors_total = %d; degraded fallback must keep fetches succeeding", got)
	}

	// Recovery: a replacement monitor claims the dead monitor's flows.
	repl, err := monitor.New(monitor.Config{
		ID:        "mon-b2",
		FlowIDs:   []int{1, 4, 7},
		WindowLen: testWindow,
		Epsilon:   0.05,
		Sketch:    randproj.Config{Seed: testSeed, SketchLen: testSketch},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := repl.Connect(svc.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = repl.Close() })
	mons[1] = repl
	alive[1] = true
	waitMonitors(t, svc, 3)

	chaosAlarms := make(map[int64]bool)
	for ; interval < total; interval++ {
		iv := interval + 1
		feedAlive(t, mons, alive, iv, rows[interval])
		d := nextDecision(t, decisions, iv)
		chaosAlarms[iv] = d.Result.Anomalous
		if iv == anomalyUp {
			if !d.Result.Anomalous {
				t.Fatalf("interval %d: post-recovery anomaly not flagged", iv)
			}
			if d.Degraded {
				t.Fatalf("interval %d: full-coverage rebuild must clear the degraded flag", iv)
			}
		}
		if iv > anomalyUp && d.Degraded {
			t.Fatalf("interval %d still degraded after healthy rebuild", iv)
		}
	}
	if got := svc.met.staleFlows.Value(); got != 0 {
		t.Fatalf("stale_flows gauge = %v after healthy fetch, want 0", got)
	}

	// No-fault twin: same trace, three healthy monitors throughout. Alarm
	// verdicts must agree once the chaos deployment is healthy again.
	twin, twinDecisions := startNOC(t, chaosConfig())
	twinMons := startMonitors(t, twin.Addr(), 3)
	waitMonitors(t, twin, 3)
	twinAlarms := make(map[int64]bool)
	for i := 0; i < total; i++ {
		iv := int64(i + 1)
		feedAlive(t, twinMons, []bool{true, true, true}, iv, rows[i])
		d := nextDecision(t, twinDecisions, iv)
		twinAlarms[iv] = d.Result.Anomalous
	}
	for iv := anomalyUp; iv <= total; iv++ {
		if chaosAlarms[iv] != twinAlarms[iv] {
			t.Errorf("interval %d: chaos alarm=%t, no-fault alarm=%t", iv, chaosAlarms[iv], twinAlarms[iv])
		}
	}
}

// TestChaosDelayedResponseDropped delays one sketch response beyond the
// round timeout: the retry round must re-request only that monitor with a
// fresh request ID, and the late response to the old ID must be discarded,
// not misattributed to the new round. The fetch still completes healthy.
func TestChaosDelayedResponseDropped(t *testing.T) {
	cfg := chaosConfig()
	cfg.Pull.Backoff = 25 * time.Millisecond
	plan := faults.MustPlan(7, faults.Rule{
		Dir: faults.DirRecv, Type: "sketch_response", Count: 1, Delay: 400 * time.Millisecond,
	})
	cfg.Faults = plan
	svc, decisions := startNOC(t, cfg)
	mons := startMonitors(t, svc.Addr(), 3)
	waitMonitors(t, svc, 3)

	rows := chaosRows(31, testWindow+1)
	alive := []bool{true, true, true}
	for i, row := range rows {
		iv := int64(i + 1)
		feedAlive(t, mons, alive, iv, row)
		d := nextDecision(t, decisions, iv)
		if iv == testWindow { // first non-warmup interval: model fetch
			if d.Degraded {
				t.Fatalf("interval %d: retried fetch must complete healthy, got degraded", iv)
			}
		}
	}
	if plan.Fired(0) != 1 {
		t.Fatalf("delay rule fired %d times, want 1 (%s)", plan.Fired(0), plan)
	}
	if svc.met.fetchRetries.Value() == 0 {
		t.Fatal("delayed response must cost at least one retry round")
	}
	if got := svc.met.fetchErrors.Value(); got != 0 {
		t.Fatalf("fetch_errors_total = %d, want 0 (retry must recover)", got)
	}
	if got := svc.met.staleFlows.Value(); got != 0 {
		t.Fatalf("stale_flows gauge = %v, want 0 (no cache fallback needed)", got)
	}
}

// TestChaosCorruptReportRetried corrupts one sketch response in flight: the
// NOC must reject it, keep the two good monitors' partial results, and
// recover the bad monitor's flows in a retry round.
func TestChaosCorruptReportRetried(t *testing.T) {
	cfg := chaosConfig()
	plan := faults.MustPlan(3, faults.Rule{
		Dir: faults.DirRecv, Type: "sketch_response", Count: 1, Corrupt: true,
	})
	cfg.Faults = plan
	svc, decisions := startNOC(t, cfg)
	mons := startMonitors(t, svc.Addr(), 3)
	waitMonitors(t, svc, 3)

	rows := chaosRows(45, testWindow+1)
	alive := []bool{true, true, true}
	for i, row := range rows {
		iv := int64(i + 1)
		feedAlive(t, mons, alive, iv, row)
		d := nextDecision(t, decisions, iv)
		if iv == testWindow && d.Degraded {
			t.Fatalf("interval %d: corrupt report must be recovered by retry, got degraded", iv)
		}
	}
	if plan.Fired(0) != 1 {
		t.Fatalf("corrupt rule fired %d times, want 1", plan.Fired(0))
	}
	if svc.met.fetchRetries.Value() == 0 {
		t.Fatal("corrupt response must cost at least one retry round")
	}
	if got := svc.met.fetchErrors.Value(); got != 0 {
		t.Fatalf("fetch_errors_total = %d, want 0", got)
	}
}

// TestChaosBreakerOpensAndRecovers replaces one monitor with a registered
// but mute peer: it reports volumes and never answers sketch pulls. Two
// consecutive timeouts must open its breaker, after which fetches skip it
// and rebuild from the sketch cache; a real monitor re-registering under
// the same identity resets the breaker and restores healthy fetches.
func TestChaosBreakerOpensAndRecovers(t *testing.T) {
	cfg := chaosConfig()
	cfg.Pull.Timeout = 200 * time.Millisecond
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Minute // stays open for the whole test
	svc, decisions := startNOC(t, cfg)
	mons := startMonitors(t, svc.Addr(), 3)
	waitMonitors(t, svc, 3)

	const total = 80
	anomalyMute, anomalyHealed := int64(testWindow+5), int64(total-2)
	rows := chaosRows(77, total)
	rows[anomalyMute-1][2] += 4000
	rows[anomalyMute-1][7] += 3000
	rows[anomalyHealed-1][2] += 4000
	rows[anomalyHealed-1][7] += 3000

	muteFlows := []int{1, 4, 7}
	alive := []bool{true, true, true}
	var interval int64
	// Healthy through the first model fetch so the sketch cache is primed.
	for ; interval < testWindow+2; interval++ {
		feedAlive(t, mons, alive, interval+1, rows[interval])
		nextDecision(t, decisions, interval+1)
	}

	// Swap monitor 1 for a mute impostor with the same identity and flows.
	muteID := mons[1].ID()
	if err := mons[1].Close(); err != nil {
		t.Fatal(err)
	}
	alive[1] = false
	waitMonitors(t, svc, 2)
	mute, err := transport.Dial(svc.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mute.Close() })
	if err := mute.Send(transport.Envelope{Hello: &transport.Hello{
		MonitorID: muteID, FlowIDs: muteFlows,
		SketchLen: testSketch, WindowLen: testWindow, Seed: testSeed,
	}}); err != nil {
		t.Fatal(err)
	}
	go func() { // drain requests and alarms; answer nothing
		for {
			if _, err := mute.Recv(); err != nil {
				return
			}
		}
	}()
	waitMonitors(t, svc, 3)

	feedMute := func(iv int64) {
		vols := make([]float64, len(muteFlows))
		for k, f := range muteFlows {
			vols[k] = rows[iv-1][f]
		}
		if err := mute.Send(transport.Envelope{Volume: &transport.VolumeReport{
			MonitorID: muteID, Interval: iv, FlowIDs: muteFlows, Volumes: vols,
		}}); err != nil {
			t.Fatalf("mute volume %d: %v", iv, err)
		}
	}

	for ; interval < total-10; interval++ {
		iv := interval + 1
		feedAlive(t, mons, alive, iv, rows[interval])
		feedMute(iv)
		d := nextDecision(t, decisions, iv)
		if iv == anomalyMute {
			if !d.Result.Anomalous || !d.Result.Degraded || d.Result.StaleFlows != 3 {
				t.Fatalf("interval %d: anomalous=%t degraded=%t stale=%d, want degraded rebuild around the mute monitor",
					iv, d.Result.Anomalous, d.Result.Degraded, d.Result.StaleFlows)
			}
		}
	}
	if got := svc.met.breakerOpens.Value(); got != 1 {
		t.Fatalf("breaker_opens_total = %d, want 1", got)
	}
	if got := svc.met.breakerOpen.Value(); got != 1 {
		t.Fatalf("breaker_open gauge = %v while mute, want 1", got)
	}

	// Heal: the real monitor returns under the same identity, which resets
	// the breaker on registration.
	_ = mute.Close()
	waitMonitors(t, svc, 2)
	repl, err := monitor.New(monitor.Config{
		ID: muteID, FlowIDs: muteFlows,
		WindowLen: testWindow, Epsilon: 0.05,
		Sketch: randproj.Config{Seed: testSeed, SketchLen: testSketch},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := repl.Connect(svc.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = repl.Close() })
	mons[1] = repl
	alive[1] = true
	waitMonitors(t, svc, 3)
	if got := svc.met.breakerOpen.Value(); got != 0 {
		t.Fatalf("breaker_open gauge = %v after re-registration, want 0", got)
	}

	for ; interval < total; interval++ {
		iv := interval + 1
		feedAlive(t, mons, alive, iv, rows[interval])
		d := nextDecision(t, decisions, iv)
		if iv == anomalyHealed {
			if !d.Result.Anomalous {
				t.Fatalf("interval %d: anomaly not flagged after healing", iv)
			}
			if d.Degraded {
				t.Fatalf("interval %d: fetch must be healthy after breaker reset", iv)
			}
		}
	}
	if got := svc.met.staleFlows.Value(); got != 0 {
		t.Fatalf("stale_flows gauge = %v after healing, want 0", got)
	}
}

// TestChaosMonitorAutoReconnect injects a server-side disconnect on a
// volume receive: the victim monitor's link drops mid-stream, its
// reconnect loop redials and re-registers, and the NOC emits a decision
// for every interval throughout (the severed interval via degraded
// volume fill).
func TestChaosMonitorAutoReconnect(t *testing.T) {
	cfg := chaosConfig()
	cfg.Faults = faults.MustPlan(11, faults.Rule{
		Dir: faults.DirRecv, Type: "volume", After: 30, Count: 1, Disconnect: true,
	})
	svc, decisions := startNOC(t, cfg)

	reg := obs.NewRegistry()
	assign := make([][]int, 3)
	for f := 0; f < testFlows; f++ {
		assign[f%3] = append(assign[f%3], f)
	}
	mons := make([]*monitor.Service, 3)
	for i := range mons {
		m, err := monitor.New(monitor.Config{
			ID:        "mon-" + string(rune('a'+i)),
			FlowIDs:   assign[i],
			WindowLen: testWindow,
			Epsilon:   0.05,
			Sketch:    randproj.Config{Seed: testSeed, SketchLen: testSketch},
			Redial:    tier.RedialPolicy{Enabled: true, Backoff: 20 * time.Millisecond},
			Obs:       reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Connect(svc.Addr(), 2*time.Second); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.Close() })
		mons[i] = m
	}
	waitMonitors(t, svc, 3)

	// Resilient feeder: a monitor mid-reconnect refuses reports briefly.
	feed := func(iv int64, row []float64) {
		for i, mon := range mons {
			var local []float64
			for f := i; f < testFlows; f += 3 {
				local = append(local, row[f])
			}
			deadline := time.Now().Add(3 * time.Second)
			for {
				err := mon.ReportInterval(iv, local)
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("monitor %d interval %d: %v", i, iv, err)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}

	const total = 40 // all warm-up; decision continuity is the point
	rows := chaosRows(12, total)
	sawDegraded := false
	for i, row := range rows {
		iv := int64(i + 1)
		feed(iv, row)
		if d := nextDecision(t, decisions, iv); d.Degraded {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatal("the severed interval should have completed degraded")
	}
	reconnects := reg.Counter("streampca_monitor_reconnects_total", "").Value()
	if reconnects != 1 {
		t.Fatalf("reconnects_total = %d, want 1", reconnects)
	}
	waitMonitors(t, svc, 3)
}
