package noc

import (
	"bytes"
	"encoding/json"
	"errors"
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
			Mode:      core.RankFixed,
			FixedRank: 2,
		},
		Seed:         testSeed,
		FetchTimeout: 2 * time.Second,
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

// startMonitors spins nMon monitor services partitioning testFlows flows and
// connects them to addr.
func startMonitors(t *testing.T, addr string, nMon int) []*monitor.Service {
	t.Helper()
	assign := make([][]int, nMon)
	for f := 0; f < testFlows; f++ {
		assign[f%nMon] = append(assign[f%nMon], f)
	}
	mons := make([]*monitor.Service, nMon)
	for i := range mons {
		svc, err := monitor.New(monitor.Config{
			ID:        "mon-" + string(rune('a'+i)),
			FlowIDs:   assign[i],
			WindowLen: testWindow,
			Epsilon:   0.05,
			Sketch:    randproj.Config{Seed: testSeed, SketchLen: testSketch},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Connect(addr, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = svc.Close() })
		mons[i] = svc
	}
	return mons
}

// feedInterval pushes one interval's volumes through all monitors.
func feedInterval(t *testing.T, mons []*monitor.Service, interval int64, volumes []float64) {
	t.Helper()
	for i, mon := range mons {
		// Rebuild each monitor's slice per its flow assignment.
		var local []float64
		for f := i; f < testFlows; f += len(mons) {
			local = append(local, volumes[f])
		}
		if err := mon.ReportInterval(interval, local); err != nil {
			t.Fatalf("monitor %d interval %d: %v", i, interval, err)
		}
	}
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
}

func TestEndToEndDetection(t *testing.T) {
	svc, decisions := startNOC(t, nocConfig())
	mons := startMonitors(t, svc.Addr(), 3)

	// Allow registrations to land.
	deadline := time.Now().Add(2 * time.Second)
	for len(svc.Monitors()) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("monitors registered: %v", svc.Monitors())
		}
		time.Sleep(10 * time.Millisecond)
	}

	rng := rand.New(rand.NewSource(50))
	var interval int64
	// Warm-up: fill the window.
	for i := 0; i < testWindow+10; i++ {
		interval++
		feedInterval(t, mons, interval, trafficRow(rng, interval))
		nextDecision(t, decisions, interval)
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
		feedInterval(t, mons, interval, trafficRow(rng, interval))
		if d := nextDecision(t, decisions, interval); d.Result.Anomalous {
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
	feedInterval(t, mons, interval, bad)
	d := nextDecision(t, decisions, interval)
	if !d.Result.Anomalous {
		t.Fatalf("injected anomaly missed: %+v", d.Result)
	}
}

func TestAlarmBroadcastToMonitors(t *testing.T) {
	svc, decisions := startNOC(t, nocConfig())

	var alarmMu sync.Mutex
	var gotAlarms []transport.Alarm
	// One bespoke monitor with an alarm callback plus two plain ones.
	assign := [][]int{{0, 3, 6}, {1, 4, 7}, {2, 5, 8}}
	var mons []*monitor.Service
	for i, flows := range assign {
		cfg := monitor.Config{
			ID:        "m" + string(rune('0'+i)),
			FlowIDs:   flows,
			WindowLen: testWindow,
			Epsilon:   0.05,
			Sketch:    randproj.Config{Seed: testSeed, SketchLen: testSketch},
		}
		if i == 0 {
			cfg.OnAlarm = func(a transport.Alarm) {
				alarmMu.Lock()
				gotAlarms = append(gotAlarms, a)
				alarmMu.Unlock()
			}
		}
		m, err := monitor.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Connect(svc.Addr(), 2*time.Second); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.Close() })
		mons = append(mons, m)
	}

	rng := rand.New(rand.NewSource(51))
	var interval int64
	feed := func(volumes []float64) Decision {
		interval++
		for i, mon := range mons {
			var local []float64
			for _, f := range assign[i] {
				local = append(local, volumes[f])
			}
			if err := mon.ReportInterval(interval, local); err != nil {
				t.Fatal(err)
			}
		}
		return nextDecision(t, decisions, interval)
	}

	for i := 0; i < testWindow+5; i++ {
		feed(trafficRow(rng, interval))
	}
	// Moderate, structure-breaking shift: large enough to clear the
	// threshold, small enough that it cannot hijack a top principal
	// component after the lazy refresh absorbs the interval.
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
		ID: "bad", FlowIDs: []int{0}, WindowLen: testWindow, Epsilon: 0.05,
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
		ID: "ok1", FlowIDs: []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, WindowLen: testWindow, Epsilon: 0.05,
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
		ID: "dup", FlowIDs: []int{3}, WindowLen: testWindow, Epsilon: 0.05,
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
	cfg.FetchTimeout = 500 * time.Millisecond
	svc, decisions := startNOC(t, cfg)
	mons := startMonitors(t, svc.Addr(), 3)

	rng := rand.New(rand.NewSource(52))
	var interval int64
	for i := 0; i < testWindow+5; i++ {
		interval++
		feedInterval(t, mons, interval, trafficRow(rng, interval))
		nextDecision(t, decisions, interval)
	}

	// Kill one monitor; its flows go uncovered.
	_ = mons[2].Close()
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
		var local []float64
		for f := i; f < testFlows; f += 3 {
			local = append(local, row[f])
		}
		if err := mons[i].ReportInterval(interval, local); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case d := <-decisions:
		t.Fatalf("unexpected decision %+v with a monitor down", d)
	case <-time.After(300 * time.Millisecond):
	}

	// Reconnect a replacement for the dead monitor's flows.
	replacement, err := monitor.New(monitor.Config{
		ID: "replacement", FlowIDs: []int{2, 5, 8}, WindowLen: testWindow, Epsilon: 0.05,
		Sketch: randproj.Config{Seed: testSeed, SketchLen: testSketch},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := replacement.Connect(svc.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = replacement.Close() })
	deadline = time.Now().Add(2 * time.Second)
	for len(svc.Monitors()) != 3 {
		if time.Now().After(deadline) {
			t.Fatal("replacement never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Warm the replacement's window, then detection resumes end to end.
	for i := 0; i < testWindow+2; i++ {
		interval++
		row := trafficRow(rng, interval)
		for mi := 0; mi < 2; mi++ {
			var local []float64
			for f := mi; f < testFlows; f += 3 {
				local = append(local, row[f])
			}
			if err := mons[mi].ReportInterval(interval, local); err != nil {
				t.Fatal(err)
			}
		}
		var local []float64
		for _, f := range []int{2, 5, 8} {
			local = append(local, row[f])
		}
		if err := replacement.ReportInterval(interval, local); err != nil {
			t.Fatal(err)
		}
		nextDecision(t, decisions, interval)
	}
}

func TestLocalSketchesMode(t *testing.T) {
	// §V-A variant: the NOC maintains the histograms itself; monitors act
	// as volume reporters only and never receive sketch requests.
	cfg := nocConfig()
	cfg.LocalSketches = true
	svc, decisions := startNOC(t, cfg)
	mons := startMonitors(t, svc.Addr(), 3)

	rng := rand.New(rand.NewSource(53))
	var interval int64
	for i := 0; i < testWindow+10; i++ {
		interval++
		feedInterval(t, mons, interval, trafficRow(rng, interval))
		nextDecision(t, decisions, interval)
	}
	if !svc.HasModel() {
		t.Fatal("NOC must build a model from its own histograms")
	}
	// Anomaly detection still works.
	interval++
	bad := trafficRow(rng, interval)
	bad[1] += 4000
	bad[6] += 3000
	feedInterval(t, mons, interval, bad)
	d := nextDecision(t, decisions, interval)
	if !d.Result.Anomalous {
		t.Fatalf("anomaly missed in local-sketch mode: %+v", d.Result)
	}
	// And detection keeps working even after every monitor disconnects
	// mid-stream — the NOC's own state is self-sufficient for sketches
	// (volume reports must still arrive, so reconnect a full-coverage one).
	for _, m := range mons {
		_ = m.Close()
	}
	// Wait for the NOC to release the dead monitors' flow ownership before
	// a full-coverage replacement can register.
	deadline := time.Now().Add(2 * time.Second)
	for len(svc.Monitors()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("old monitors never unregistered: %v", svc.Monitors())
		}
		time.Sleep(10 * time.Millisecond)
	}
	all := make([]int, testFlows)
	for f := range all {
		all[f] = f
	}
	solo, err := monitor.New(monitor.Config{
		ID: "solo", FlowIDs: all, WindowLen: testWindow, Epsilon: 0.05,
		Sketch: randproj.Config{Seed: testSeed, SketchLen: testSketch},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := solo.Connect(svc.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = solo.Close() })
	deadline = time.Now().Add(2 * time.Second)
	for len(svc.Monitors()) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("solo monitor never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		interval++
		if err := solo.ReportInterval(interval, trafficRow(rng, interval)); err != nil {
			t.Fatal(err)
		}
		nextDecision(t, decisions, interval)
	}
}

func TestFetchErrors(t *testing.T) {
	// Exercise fetchSketches failure paths directly.
	svc, err := New(nocConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.fetchSketches(nil); !errors.Is(err, ErrCoverage) {
		t.Fatalf("no monitors: %v", err)
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
		cfg.FetchRetries = -1
		cfg.Degraded.MaxStaleness = maxStale
		var flight bytes.Buffer
		cfg.FlightRecorder = trace.NewFlightRecorder(&flight)
		svc, decisions := startNOC(t, cfg)
		mons := startMonitors(t, svc.Addr(), 3)
		waitMonitors(t, svc, 3)
		rows := chaosRows(21, testWindow+1)
		for i, row := range rows {
			feedInterval(t, mons, int64(i+1), row)
			nextDecision(t, decisions, int64(i+1))
		}
		last := int64(len(rows)) // the newest interval any volume report named

		// mon-b (flows 1, 4, 7) gives way to a racer that answers one pull
		// with mon-b's sketch state stamped `ahead` intervals past `last`.
		rep := mons[1].Report()
		rep.Interval = last + tc.ahead
		_ = mons[1].Close()
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
		if f, err := svc.fetchSketches(nil); err != nil || f.Degraded || f.Interval != last+tc.ahead {
			t.Fatalf("ahead=%d: live fetch = degraded %t at interval %d, %v; want healthy at the racer's interval",
				tc.ahead, f.Degraded, f.Interval, err)
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

		f, err := svc.fetchSketches(nil)
		switch {
		case tc.admitted && (err != nil || !f.Degraded || f.StaleFlows != len(racerFlows)):
			t.Fatalf("ahead=%d: fetch = degraded %t, stale %d, err %v; want the cached columns to fill in",
				tc.ahead, f.Degraded, f.StaleFlows, err)
		case !tc.admitted && !errors.Is(err, ErrCoverage):
			t.Fatalf("ahead=%d: fetch = degraded %t, stale %d, err %v; want ErrCoverage — the cached columns are %d intervals from ref, MaxStaleness is %d",
				tc.ahead, f.Degraded, f.StaleFlows, err, tc.ahead, maxStale)
		}
		svc.Shutdown()
	}
}
