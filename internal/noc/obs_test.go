package noc

import (
	"context"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"streampca/internal/agg"
	"streampca/internal/ingest"
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
	if got := counterValue(monReg, "streampca_monitor_intervals_total"); got != int64(total) {
		t.Fatalf("monitor intervals = %d, want %d", got, total)
	}
	if got := counterValue(monReg, "streampca_monitor_sketch_requests_total"); got != reqs {
		t.Fatalf("monitor served %d sketch requests, received %d", got, reqs)
	}
	// And the NOC's DetectorStats reads the same registry the alarms counter
	// lives in.
	observations, fetches, _ := svc.DetectorStats()
	if observations == 0 || fetches == 0 {
		t.Fatalf("detector stats = %d obs, %d fetches", observations, fetches)
	}
}

// recordLog is a slog.Handler that keeps every record it is handed, with the
// record's own attributes only (not those a logger's With added).
type recordLog struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *recordLog) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordLog) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *recordLog) WithGroup(string) slog.Handler            { return h }
func (h *recordLog) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs = append(h.recs, r.Clone())
	return nil
}

// last returns the attributes of the newest record logged with msg, one
// "key value" line each.
func (h *recordLog) last(t *testing.T, msg string) []string {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := len(h.recs) - 1; i >= 0; i-- {
		if h.recs[i].Message != msg {
			continue
		}
		var out []string
		h.recs[i].Attrs(func(a slog.Attr) bool {
			out = append(out, a.Key+" "+a.Value.String())
			return true
		})
		return out
	}
	t.Fatalf("no %q record logged", msg)
	return nil
}

// unlabeledSeries returns the lines of reg's /metrics exposition that hold
// an unlabeled counter or gauge, in order.
func unlabeledSeries(t *testing.T, reg *obs.Registry) []string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	kind := map[string]string{}
	var out []string
	for _, line := range strings.Split(b.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			kind[f[2]] = f[3]
		case len(f) == 2 && (kind[f[0]] == "counter" || kind[f[0]] == "gauge"):
			out = append(out, line)
		}
	}
	return out
}

// TestLogSummaryIsTheRegistry: the -stats-every line of each service — a NOC,
// an aggregator, and a monitor whose registry also holds an ingest
// pipeline's metrics and the self-check series — is exactly the unlabeled
// counters and gauges of the registry passed as Config.Obs, keyed and valued
// as /metrics prints them.
func TestLogSummaryIsTheRegistry(t *testing.T) {
	logs := &recordLog{}
	nocReg, aggReg, monReg := obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()

	cfg := nocConfig()
	cfg.Obs, cfg.Log, cfg.SelfCheckEvery = nocReg, slog.New(logs), 1
	// What the monitor daemon's ingest pipeline registers beside the monitor.
	ingest.NewMetrics(monReg).Unroutable.Add(3)
	dep := deploy(t, cfg, Topology{Aggregators: 1, Monitors: 1, Agg: agg.Config{Obs: aggReg, Log: slog.New(logs)},
		Monitor: func(_ int, c *monitor.Config) { c.SelfCheckEvery, c.Obs, c.Log = 1, monReg, slog.New(logs) }})
	svc, a, mon := dep.NOC, dep.Aggregators[0], dep.Monitors[0]

	rng := rand.New(rand.NewSource(36))
	for i := int64(1); i <= testWindow+3; i++ {
		step(t, dep, i, trafficRow(rng, i))
	}

	for _, c := range []struct {
		msg     string
		reg     *obs.Registry
		summary func()
	}{
		{"noc stats", nocReg, svc.LogSummary},
		{"aggregator stats", aggReg, a.LogSummary},
		{"monitor stats", monReg, mon.LogSummary},
	} {
		// An alarm relay may still move a counter; read until the exposition
		// holds still across the summary.
		for attempt := 0; ; attempt++ {
			before := unlabeledSeries(t, c.reg)
			c.summary()
			got := logs.last(t, c.msg)
			if !slices.Equal(before, unlabeledSeries(t, c.reg)) && attempt < 50 {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			if !slices.Equal(got, before) {
				t.Errorf("%q line:\n  %s\nwant the registry's unlabeled counters and gauges:\n  %s",
					c.msg, strings.Join(got, "\n  "), strings.Join(before, "\n  "))
			}
			break
		}
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

	dep, err := Deploy(nocConfig(), Topology{Monitors: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 1; i <= 8; i++ {
		step(t, dep, int64(i), trafficRow(rng, int64(i)))
	}
	dep.Close()

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
