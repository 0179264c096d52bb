package monitor

import (
	"strings"
	"testing"
	"time"

	"streampca/internal/obs"
	"streampca/internal/transport"
)

// TestStatsAndInstrumentation exercises the registry's counters across the
// full protocol surface: interval ingestion, sketch pulls, and alarm
// broadcasts.
func TestStatsAndInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	alarmCh := make(chan transport.Alarm, 1)
	cfg := testConfig()
	cfg.Obs = reg
	cfg.SelfCheckEvery = 1 // every interval also runs the oracle validator
	cfg.OnAlarm = func(a transport.Alarm) { alarmCh <- a }
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	local, remote := transport.Pipe()
	recvCh := startReader(remote)
	if err := svc.Attach(local); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	expectFrame(t, recvCh) // hello

	for i := 1; i <= 3; i++ {
		if err := svc.ReportInterval(int64(i), []float64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		expectFrame(t, recvCh) // volume report
	}

	if err := remote.Send(transport.Envelope{Request: &transport.SketchRequest{RequestID: 9}}); err != nil {
		t.Fatal(err)
	}
	if resp := expectFrame(t, recvCh); resp.Response == nil || resp.Response.RequestID != 9 {
		t.Fatalf("expected sketch response, got %+v", resp)
	}

	if err := remote.Send(transport.Envelope{Alarm: &transport.Alarm{Interval: 3, Distance: 5, Threshold: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-alarmCh:
	case <-time.After(2 * time.Second):
		t.Fatal("alarm callback never fired")
	}

	for name, want := range map[string]int64{
		"streampca_monitor_intervals_total":       3,
		"streampca_monitor_sketch_requests_total": 1,
		"streampca_monitor_alarms_received_total": 1,
		"streampca_monitor_report_errors_total":   0,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("streampca_monitor_last_interval", "").Value(); got != 3 {
		t.Errorf("last interval gauge = %v, want 3", got)
	}
	if got := reg.Gauge("streampca_monitor_vh_buckets", "").Value(); got == 0 {
		t.Error("vh_buckets gauge never set")
	}

	// The update-latency histogram saw one sample per interval.
	h := reg.Histogram("streampca_monitor_update_seconds", "", nil)
	if snap := h.Snapshot(); snap.Count != 3 {
		t.Fatalf("update histogram count = %d, want 3", snap.Count)
	}
	// And the whole surface renders as Prometheus text.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"streampca_monitor_update_seconds_bucket",
		"streampca_monitor_intervals_total 3",
		"streampca_monitor_vh_buckets",
		"streampca_transport_messages_total",
		"streampca_monitor_oracle_checks_total",
		"streampca_monitor_oracle_violations_total 0",
		"streampca_monitor_oracle_max_rel_err",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
	// The validator ran on all three intervals and found nothing.
	if got := reg.Counter("streampca_monitor_oracle_checks_total", "").Value(); got == 0 {
		t.Fatal("oracle checks counter never advanced")
	}
}

// TestDiagServerLifecycle checks MetricsAddr spins up /metrics and Close
// tears it down.
func TestDiagServerLifecycle(t *testing.T) {
	cfg := testConfig()
	cfg.MetricsAddr = "127.0.0.1:0"
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := svc.DiagAddr()
	if addr == "" {
		t.Fatal("diagnostics server not started")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close the port must be released (no listener left behind).
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err := transport.Dial(addr, 100*time.Millisecond)
		if err != nil {
			break
		}
		_ = c.Close()
		if time.Now().After(deadline) {
			t.Fatal("diagnostics server still listening after Close")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
