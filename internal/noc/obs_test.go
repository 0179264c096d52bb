package noc

import (
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"streampca/internal/monitor"
	"streampca/internal/obs"
	"streampca/internal/randproj"
	"streampca/internal/transport"
)

// counterValue reads a transport message counter from a registry via the
// get-or-create identity of obs.Registry.
func counterValue(reg *obs.Registry, name string, labels ...obs.Label) int64 {
	return reg.Counter(name, "", labels...).Value()
}

// TestPipeTransportCountersEndToEnd drives the full monitor→NOC protocol
// over an in-memory pipe and asserts the wire counters on both ends.
func TestPipeTransportCountersEndToEnd(t *testing.T) {
	monReg := obs.NewRegistry()
	nocReg := obs.NewRegistry()
	cfg := nocConfig()
	cfg.Obs = nocReg
	svc, decisions := startNOC(t, cfg)

	monMet := transport.NewMetrics(monReg)
	monEnd, nocEnd := transport.PipeWithMetrics(monMet, svc.wireMet)
	handleDone := make(chan struct{})
	go func() {
		defer close(handleDone)
		defer func() { _ = nocEnd.Close() }() // what acceptLoop does for TCP conns
		svc.down.Handle(nocEnd)
	}()

	flowIDs := make([]int, testFlows)
	for j := range flowIDs {
		flowIDs[j] = j
	}
	mon, err := monitor.New(monitor.Config{
		ID:        "pipe-mon",
		FlowIDs:   flowIDs,
		WindowLen: testWindow,
		Epsilon:   0.05,
		Sketch:    randproj.Config{Seed: testSeed, SketchLen: testSketch},
		Obs:       monReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Attach(monEnd); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(77))
	total := testWindow + 3 // past warm-up so at least one sketch pull happens
	for i := 1; i <= total; i++ {
		if err := mon.ReportInterval(int64(i), trafficRow(rng, int64(i))); err != nil {
			t.Fatalf("interval %d: %v", i, err)
		}
		nextDecision(t, decisions, int64(i))
	}
	if err := mon.Close(); err != nil {
		t.Fatalf("close monitor: %v", err)
	}
	select {
	case <-handleDone:
	case <-time.After(2 * time.Second):
		t.Fatal("NOC handler did not exit after monitor close")
	}

	const msgs = "streampca_transport_messages_total"
	sent := func(typ string) obs.Label { return obs.L("type", typ) }
	// Monitor side: one hello and `total` volume reports out; the lazy
	// protocol pulled sketches at least once.
	if got := counterValue(monReg, msgs, obs.L("direction", "sent"), sent("hello")); got != 1 {
		t.Fatalf("monitor sent hello = %d", got)
	}
	if got := counterValue(monReg, msgs, obs.L("direction", "sent"), sent("volume")); got != int64(total) {
		t.Fatalf("monitor sent volume = %d, want %d", got, total)
	}
	reqs := counterValue(monReg, msgs, obs.L("direction", "recv"), sent("sketch_request"))
	if reqs < 1 {
		t.Fatalf("monitor received %d sketch requests, want >= 1", reqs)
	}
	if got := counterValue(monReg, msgs, obs.L("direction", "sent"), sent("sketch_response")); got != reqs {
		t.Fatalf("monitor sent %d responses for %d requests", got, reqs)
	}
	// NOC side mirrors it.
	if got := counterValue(nocReg, msgs, obs.L("direction", "recv"), sent("hello")); got != 1 {
		t.Fatalf("NOC received hello = %d", got)
	}
	if got := counterValue(nocReg, msgs, obs.L("direction", "recv"), sent("volume")); got != int64(total) {
		t.Fatalf("NOC received volume = %d, want %d", got, total)
	}
	if got := counterValue(nocReg, msgs, obs.L("direction", "sent"), sent("sketch_request")); got != reqs {
		t.Fatalf("NOC sent %d sketch requests, monitor saw %d", got, reqs)
	}
	// Bytes moved and connection lifecycle.
	for _, reg := range []*obs.Registry{monReg, nocReg} {
		if got := counterValue(reg, "streampca_transport_bytes_total", obs.L("direction", "sent")); got == 0 {
			t.Fatal("no bytes counted as sent")
		}
		if got := counterValue(reg, "streampca_transport_connections_total", obs.L("event", "opened")); got != 1 {
			t.Fatalf("connections opened = %d", got)
		}
		if got := counterValue(reg, "streampca_transport_connections_total", obs.L("event", "closed")); got != 1 {
			t.Fatalf("connections closed = %d", got)
		}
	}
	// The monitor-side registry also carries the monitor service metrics.
	if st := mon.Stats(); st.Intervals != int64(total) || st.SketchRequests != reqs {
		t.Fatalf("monitor stats = %+v", st)
	}
	// And the NOC's DetectorStats shim reads the same registry the alarms
	// counter lives in.
	observations, fetches, _ := svc.DetectorStats()
	if observations == 0 || fetches == 0 {
		t.Fatalf("detector stats = %d obs, %d fetches", observations, fetches)
	}
}

// TestMetricsEndpoint boots a NOC with the diagnostics server enabled and
// asserts the acceptance-criteria metrics appear in /metrics.
func TestMetricsEndpoint(t *testing.T) {
	cfg := nocConfig()
	cfg.MetricsAddr = "127.0.0.1:0"
	cfg.SelfCheckEvery = 1 // register the oracle metrics surface too
	svc, _ := startNOC(t, cfg)
	if svc.DiagAddr() == "" {
		t.Fatal("diagnostics server not started")
	}

	resp, err := http.Get("http://" + svc.DiagAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"streampca_transport_messages_total",
		"streampca_noc_retrain_seconds",
		"streampca_noc_alarms_total",
		"streampca_noc_monitors_connected",
		"streampca_noc_fetch_seconds",
		"streampca_noc_oracle_checks_total",
		"streampca_noc_oracle_violations_total",
		"streampca_noc_oracle_max_rel_err",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}

	hresp, err := http.Get("http://" + svc.DiagAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	hbody, _ := io.ReadAll(hresp.Body)
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(hbody), `"noc"`) {
		t.Fatalf("/healthz status=%d body=%s", hresp.StatusCode, hbody)
	}
}

// TestNoListenerWithoutMetricsAddr pins the default-off behavior.
func TestNoListenerWithoutMetricsAddr(t *testing.T) {
	svc, _ := startNOC(t, nocConfig())
	if svc.DiagAddr() != "" {
		t.Fatalf("diagnostics server unexpectedly at %q", svc.DiagAddr())
	}
}

// TestShutdownWithoutServe pins the audit fix: Shutdown must not hang (or
// panic) when Serve was never called, and must be idempotent.
func TestShutdownWithoutServe(t *testing.T) {
	svc, err := New(nocConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		svc.Shutdown()
		svc.Shutdown() // second call must be a no-op, not a double close
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown hung without Serve")
	}
}

// TestShutdownLeavesNoGoroutines runs a full NOC+monitors cycle and checks
// processLoop, handleConn and monitor readers all exit.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	decisions := make(chan Decision, 1024)
	cfg := nocConfig()
	cfg.OnDecision = func(d Decision) { decisions <- d }
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	mons := startMonitors(t, svc.Addr(), 3)
	rng := rand.New(rand.NewSource(13))
	for i := 1; i <= 8; i++ {
		feedInterval(t, mons, int64(i), trafficRow(rng, int64(i)))
		nextDecision(t, decisions, int64(i))
	}
	for _, m := range mons {
		_ = m.Close()
	}
	svc.Shutdown()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
