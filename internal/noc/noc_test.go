package noc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/monitor"
	"streampca/internal/randproj"
	"streampca/internal/tier"
	"streampca/internal/trace"
	"streampca/internal/transport"
)

const (
	testFlows  = 9
	testWindow = 64
	testSketch = 32
	testSeed   = 4242
)

func nocConfig() Config {
	return Config{
		Detector: core.DetectorConfig{
			NumFlows:  testFlows,
			WindowLen: testWindow,
			SketchLen: testSketch,
			Alpha:     0.01,
			FixedRank: 2,
		},
		Seed: testSeed,
		Pull: tier.PullPolicy{Timeout: 2 * time.Second},
	}
}

// startNOC boots a NOC with a decision recorder.
func startNOC(t *testing.T, cfg Config) (*Service, <-chan Decision) {
	t.Helper()
	decisions := make(chan Decision, 1024)
	cfg.OnDecision = func(d Decision) { decisions <- d }
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Shutdown)
	return svc, decisions
}

// deploy starts a deployment for the test, closed at cleanup.
func deploy(t *testing.T, cfg Config, topo Topology) *Deployment {
	t.Helper()
	d, err := Deploy(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// step is Deployment.Step, failing the test on an error.
func step(t *testing.T, d *Deployment, interval int64, volumes []float64) Decision {
	t.Helper()
	dec, err := d.Step(interval, volumes)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// nextDecision waits for the decision of a specific interval.
func nextDecision(t *testing.T, decisions <-chan Decision, interval int64) Decision {
	t.Helper()
	for {
		select {
		case d := <-decisions:
			if d.Interval == interval {
				return d
			}
			// Skip stale decisions (earlier intervals).
		case <-time.After(5 * time.Second):
			t.Fatalf("no decision for interval %d", interval)
		}
	}
}

// projectionSeeds are the committed projection seed and 1–20: a detection
// test that passes at one seed may pass by the luck of its projection.
func projectionSeeds() []uint64 {
	seeds := []uint64{testSeed}
	for s := uint64(1); s <= 20; s++ {
		seeds = append(seeds, s)
	}
	return seeds
}

// trafficRow synthesizes a rank-2-plus-noise volume vector.
func trafficRow(rng *rand.Rand, t int64) []float64 {
	f1 := 1000 + 200*rng.NormFloat64()
	f2 := 500 + 100*rng.NormFloat64()
	row := make([]float64, testFlows)
	for j := range row {
		w1 := float64(j%3) + 1
		w2 := float64(j%4) + 1
		row[j] = w1*f1 + w2*f2 + 10*rng.NormFloat64()
	}
	return row
}

func TestNewValidation(t *testing.T) {
	cfg := nocConfig()
	cfg.Detector.NumFlows = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("bad detector config must fail")
	}
	cfg = nocConfig()
	cfg.Degraded = tier.DegradedPolicy{Enabled: true, MaxStaleness: -1}
	if _, err := New(cfg); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative max staleness: %v, want ErrConfig", err)
	}
}

func TestEndToEndDetection(t *testing.T) {
	for _, seed := range projectionSeeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { endToEndDetection(t, seed) })
	}
}

func endToEndDetection(t *testing.T, seed uint64) {
	cfg := nocConfig()
	cfg.Seed = seed
	dep := deploy(t, cfg, Topology{Monitors: 3})
	svc := dep.NOC

	rng := rand.New(rand.NewSource(50))
	var interval int64
	// Warm-up: fill the window.
	for i := 0; i < testWindow+10; i++ {
		interval++
		step(t, dep, interval, trafficRow(rng, interval))
	}
	if !svc.HasModel() {
		t.Fatal("NOC must have built a model")
	}
	obs0, fetches0, _ := svc.DetectorStats()
	if obs0 == 0 || fetches0 == 0 {
		t.Fatalf("stats = %d obs, %d fetches", obs0, fetches0)
	}

	// Steady traffic: mostly normal decisions, few fetches.
	var alarms int
	for i := 0; i < 20; i++ {
		interval++
		if d := step(t, dep, interval, trafficRow(rng, interval)); d.Result.Anomalous {
			alarms++
		}
	}
	if alarms > 5 {
		t.Fatalf("%d/20 alarms on normal traffic", alarms)
	}

	// Inject a structured anomaly: big, low-rank-breaking shift.
	interval++
	bad := trafficRow(rng, interval)
	bad[0] += 5e5
	bad[5] += 3e5
	d := step(t, dep, interval, bad)
	if !d.Result.Anomalous {
		t.Fatalf("injected anomaly missed: %+v", d.Result)
	}
}

func TestAlarmBroadcastToMonitors(t *testing.T) {
	for _, seed := range projectionSeeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { alarmBroadcastToMonitors(t, seed) })
	}
}

func alarmBroadcastToMonitors(t *testing.T, seed uint64) {
	cfg := nocConfig()
	cfg.Seed = seed
	var alarmMu sync.Mutex
	var gotAlarms []transport.Alarm
	// One bespoke monitor with an alarm callback plus two plain ones.
	dep := deploy(t, cfg, Topology{Monitors: 3, Monitor: func(i int, c *monitor.Config) {
		if i == 0 {
			c.OnAlarm = func(a transport.Alarm) {
				alarmMu.Lock()
				gotAlarms = append(gotAlarms, a)
				alarmMu.Unlock()
			}
		}
	}})

	rng := rand.New(rand.NewSource(51))
	var interval int64
	feed := func(volumes []float64) Decision {
		interval++
		return step(t, dep, interval, volumes)
	}

	for i := 0; i < testWindow+5; i++ {
		feed(trafficRow(rng, interval))
	}
	// Moderate, structure-breaking shift, large enough to clear the
	// threshold. The lazy refresh leaves the interval out of the model it
	// is scored against.
	bad := trafficRow(rng, interval)
	bad[2] += 4000
	bad[7] += 3000
	if d := feed(bad); !d.Result.Anomalous {
		t.Fatalf("anomaly missed: %+v", d.Result)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		alarmMu.Lock()
		n := len(gotAlarms)
		alarmMu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("alarm never reached the monitor")
		}
		time.Sleep(10 * time.Millisecond)
	}
	alarmMu.Lock()
	a := gotAlarms[0]
	alarmMu.Unlock()
	if a.Distance <= a.Threshold {
		t.Fatalf("alarm payload = %+v", a)
	}
}

func TestRejectsMismatchedMonitor(t *testing.T) {
	svc, _ := startNOC(t, nocConfig())

	// Wrong seed: rejected at hello.
	bad, err := monitor.New(monitor.Config{
		ID: "bad", FlowIDs: []int{0}, WindowLen: testWindow,
		Sketch: randproj.Config{Seed: 1, SketchLen: testSketch},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Connect(svc.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	defer bad.Close()

	deadline := time.Now().Add(2 * time.Second)
	for len(svc.Monitors()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("mismatched monitor registered: %v", svc.Monitors())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Overlapping flows: second registration rejected.
	ok1, err := monitor.New(monitor.Config{
		ID: "ok1", FlowIDs: []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, WindowLen: testWindow,
		Sketch: randproj.Config{Seed: testSeed, SketchLen: testSketch},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ok1.Connect(svc.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	defer ok1.Close()
	deadline = time.Now().Add(2 * time.Second)
	for len(svc.Monitors()) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first monitor never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	dup, err := monitor.New(monitor.Config{
		ID: "dup", FlowIDs: []int{3}, WindowLen: testWindow,
		Sketch: randproj.Config{Seed: testSeed, SketchLen: testSketch},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dup.Connect(svc.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	defer dup.Close()
	time.Sleep(100 * time.Millisecond)
	if got := svc.Monitors(); len(got) != 1 || got[0] != "ok1" {
		t.Fatalf("monitors = %v, want only ok1", got)
	}
}

func TestMonitorChurnRecovery(t *testing.T) {
	// With a monitor gone, complete intervals never assemble, so no
	// detections happen; after it reconnects, detection resumes.
	cfg := nocConfig()
	cfg.Pull.Timeout = 500 * time.Millisecond
	dep := deploy(t, cfg, Topology{Monitors: 3})
	svc := dep.NOC

	rng := rand.New(rand.NewSource(52))
	var interval int64
	for i := 0; i < testWindow+5; i++ {
		interval++
		step(t, dep, interval, trafficRow(rng, interval))
	}

	// Kill one monitor; its flows go uncovered.
	_ = dep.Monitors[2].Close()
	deadline := time.Now().Add(2 * time.Second)
	for len(svc.Monitors()) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("monitor departure not noticed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Feed from the survivors: intervals stay incomplete → no decision.
	interval++
	row := trafficRow(rng, interval)
	for i := 0; i < 2; i++ {
		if err := dep.Report(i, interval, row); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case d := <-dep.decisions:
		t.Fatalf("unexpected decision %+v with a monitor down", d)
	case <-time.After(300 * time.Millisecond):
	}

	// Restart the dead monitor's replacement on its flows.
	if err := dep.Restart(2); err != nil {
		t.Fatal(err)
	}

	// Warm the replacement's window, then detection resumes end to end.
	for i := 0; i < testWindow+2; i++ {
		interval++
		step(t, dep, interval, trafficRow(rng, interval))
	}
}

func TestFetchErrors(t *testing.T) {
	// Exercise fetchSketches failure paths directly.
	svc, err := New(nocConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.fetchSketches(1, nil); !errors.Is(err, ErrCoverage) {
		t.Fatalf("no monitors: %v", err)
	}
}

// TestPullPastTheScoredIntervalIsDegraded: a monitor that folds t+1 before
// the pull for t reaches it answers with a window that still holds t, so the
// model that scores t is flagged degraded. The same spike pulled in lockstep
// is not.
func TestPullPastTheScoredIntervalIsDegraded(t *testing.T) {
	dep := deploy(t, nocConfig(), Topology{Monitors: 3})
	rng := rand.New(rand.NewSource(52))
	var interval int64
	for i := 0; i < testWindow+10; i++ {
		interval++
		step(t, dep, interval, trafficRow(rng, interval))
	}
	spike := func(row []float64) []float64 {
		row[0] += 5e5
		row[5] += 3e5
		return row
	}

	interval++
	if d := step(t, dep, interval, spike(trafficRow(rng, interval))); !d.Result.Refreshed || d.Degraded || d.Result.Degraded {
		t.Fatalf("lockstep spike: refreshed %t, degraded %t; want a healthy refresh", d.Result.Refreshed, d.Degraded)
	}
	for range 5 {
		interval++
		step(t, dep, interval, trafficRow(rng, interval))
	}

	// Monitor 1 folds t and t+1 before the others report t, so the NOC
	// completes t, and pulls for it, only after monitor 1 has moved on.
	interval++
	bad, next := spike(trafficRow(rng, interval)), trafficRow(rng, interval+1)
	for _, r := range []struct {
		mon int
		t   int64
		row []float64
	}{{1, interval, bad}, {1, interval + 1, next}, {0, interval, bad}, {2, interval, bad}} {
		if err := dep.Report(r.mon, r.t, r.row); err != nil {
			t.Fatal(err)
		}
	}
	d, err := dep.Decision(interval)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Result.Refreshed || !d.Degraded || !d.Result.Degraded {
		t.Fatalf("spike pulled past its interval: refreshed %t, degraded %t; want a degraded refresh", d.Result.Refreshed, d.Degraded)
	}
}

func TestAddrBeforeServe(t *testing.T) {
	svc, err := New(nocConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Addr(); got != "" {
		t.Fatalf("Addr before Serve = %q, want empty", got)
	}
}

// TestSketchCacheStalenessIsSymmetric is the regression for the one-sided
// randproj cache test (ref-at > MaxStaleness admitted any entry newer than
// ref). A monitor answers a pull with its sketch state at interval t — ahead
// of every volume report, as when the pull lands between its sketch update
// and its volume send — and vanishes before the volume report for t lands.
// Its cached columns must be aged against |ref − t|: usable when t is within
// MaxStaleness of the reference point, refused when it is far in its future.
// A flight record written while the racer is registered must flag its row by
// the same distance.
func TestSketchCacheStalenessIsSymmetric(t *testing.T) {
	const maxStale = 2
	racerFlows := []int{1, 4, 7}
	for _, tc := range []struct {
		ahead    int64
		admitted bool
	}{{maxStale, true}, {maxStale + 8, false}} {
		cfg := chaosConfig()
		cfg.Pull.Retries = -1
		cfg.Degraded.MaxStaleness = maxStale
		var flight bytes.Buffer
		cfg.FlightRecorder = trace.NewFlightRecorder(&flight)
		dep := deploy(t, cfg, Topology{Monitors: 3})
		svc := dep.NOC
		rows := chaosRows(21, testWindow+1)
		for i, row := range rows {
			step(t, dep, int64(i+1), row)
		}
		last := int64(len(rows)) // the newest interval any volume report named

		// mon-b (flows 1, 4, 7) gives way to a racer that answers one pull
		// with mon-b's sketch state stamped `ahead` intervals past `last`.
		rep := dep.Monitors[1].Report()
		rep.Interval = last + tc.ahead
		_ = dep.Monitors[1].Close()
		waitMonitors(t, svc, 2)
		racer, err := transport.Dial(svc.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = racer.Close() })
		if err := racer.Send(transport.Envelope{Hello: &transport.Hello{
			MonitorID: "racer", FlowIDs: racerFlows,
			SketchLen: testSketch, WindowLen: testWindow, Seed: testSeed,
		}}); err != nil {
			t.Fatal(err)
		}
		waitMonitors(t, svc, 3)
		go func() {
			env, err := racer.Recv()
			if err != nil || env.Request == nil {
				t.Errorf("racer expected a sketch request: %+v, %v", env, err)
				return
			}
			_ = racer.Send(transport.Envelope{Response: &transport.SketchResponse{
				RequestID: env.Request.RequestID, MonitorID: "racer", Report: rep,
			}})
		}()
		// No interval is in flight, so driving the fetch path from the test
		// does not race the processing goroutine.
		// Scored at last, the racer's answer holds last: degraded.
		if f, err := svc.fetchSketches(last, nil); err != nil || !f.Degraded || f.StaleFlows != 0 || f.Interval != last+tc.ahead {
			t.Fatalf("ahead=%d: live fetch = degraded %t, stale %d at interval %d, %v; want degraded, nothing cached, at the racer's interval",
				tc.ahead, f.Degraded, f.StaleFlows, f.Interval, err)
		}
		flight.Reset()
		svc.flightRecord(tier.Interval{Index: last}, core.Decision{}, false, true, nil)
		var rec FlightRecord
		if err := json.Unmarshal(flight.Bytes(), &rec); err != nil {
			t.Fatalf("ahead=%d: flight record: %v", tc.ahead, err)
		}
		for _, fm := range rec.Monitors {
			if want := fm.ID == "racer" && !tc.admitted; fm.Stale != want || (fm.ID == "racer" && fm.SketchAge != -tc.ahead) {
				t.Fatalf("ahead=%d: flight row %+v, want stale=%t", tc.ahead, fm, want)
			}
		}
		_ = racer.Close()
		waitMonitors(t, svc, 2)

		f, err := svc.fetchSketches(last, nil)
		switch {
		case tc.admitted && (err != nil || !f.Degraded || f.StaleFlows != len(racerFlows)):
			t.Fatalf("ahead=%d: fetch = degraded %t, stale %d, err %v; want the cached columns to fill in",
				tc.ahead, f.Degraded, f.StaleFlows, err)
		case !tc.admitted && !errors.Is(err, ErrCoverage):
			t.Fatalf("ahead=%d: fetch = degraded %t, stale %d, err %v; want ErrCoverage — the cached columns are %d intervals from ref, MaxStaleness is %d",
				tc.ahead, f.Degraded, f.StaleFlows, err, tc.ahead, maxStale)
		}
		dep.Close()
	}
}
