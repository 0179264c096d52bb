package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrency(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hammer_total", "concurrency hammer")
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Alternate Inc and Add to cover both paths.
				if i%2 == 0 {
					c.Inc()
				} else {
					c.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	c.Add(-5)
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter decreased to %d", got)
	}
}

func TestGaugeConcurrency(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("level", "concurrency hammer")
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				g.Add(1)
				g.Add(-1)
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	want := float64(goroutines*perG) * 0.5
	if got := g.Value(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("gauge = %v, want %v", got, want)
	}
	g.Set(-3.25)
	if got := g.Value(); got != -3.25 {
		t.Fatalf("Set: gauge = %v", got)
	}
}

func TestHistogramConcurrency(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("latency_seconds", "concurrency hammer", []float64{0.1, 1, 10})
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(i%4) * 0.5) // 0, 0.5, 1, 1.5
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	wantSum := float64(goroutines) * perG / 4 * (0 + 0.5 + 1 + 1.5)
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
	// 0 → ≤0.1; 0.5 and 1 → ≤1 (le is inclusive); 1.5 → ≤10.
	quarter := int64(goroutines * perG / 4)
	if s.Counts[0] != quarter || s.Counts[1] != 2*quarter || s.Counts[2] != quarter || s.Counts[3] != 0 {
		t.Fatalf("bucket counts = %v", s.Counts)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "", L("k", "v"))
	b := reg.Counter("x_total", "", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := reg.Counter("x_total", "", L("k", "other"))
	if a == c {
		t.Fatal("distinct labels must return distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	reg.Gauge("x_total", "")
}

func TestRegistryRejectsBadNames(t *testing.T) {
	reg := NewRegistry()
	for _, bad := range []string{"", "9leading", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q must panic", bad)
				}
			}()
			reg.Counter(bad, "")
		}()
	}
}

func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("streampca_msgs_total", "Messages moved.", L("direction", "sent"), L("type", "volume"))
	c.Add(42)
	reg.Counter("streampca_msgs_total", "Messages moved.", L("direction", "recv"), L("type", "volume"))
	g := reg.Gauge("streampca_monitors", "Connected monitors.")
	g.Set(3)
	h := reg.Histogram("streampca_update_seconds", "Update latency.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(7)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP streampca_msgs_total Messages moved.
# TYPE streampca_msgs_total counter
streampca_msgs_total{direction="sent",type="volume"} 42
streampca_msgs_total{direction="recv",type="volume"} 0
# HELP streampca_monitors Connected monitors.
# TYPE streampca_monitors gauge
streampca_monitors 3
# HELP streampca_update_seconds Update latency.
# TYPE streampca_update_seconds histogram
streampca_update_seconds_bucket{le="0.01"} 1
streampca_update_seconds_bucket{le="0.1"} 2
streampca_update_seconds_bucket{le="+Inf"} 3
streampca_update_seconds_sum 7.055
streampca_update_seconds_count 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLogArgsAreTheUnlabeledSeries: the summary pairs are the unlabeled
// counters and gauges, in registration order, keyed and valued as the
// exposition prints them.
func TestLogArgsAreTheUnlabeledSeries(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "").Add(4)
	reg.Counter("labeled_total", "", L("k", "v")).Inc()
	reg.Histogram("h_seconds", "", nil).Observe(1)
	reg.Gauge("b", "").Set(0.25)
	reg.Gauge("c", "").Set(math.Inf(1))
	var b strings.Builder
	log := slog.New(slog.NewTextHandler(&b, &slog.HandlerOptions{
		ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}))
	log.Info("stats", reg.LogArgs()...)
	if want := "level=INFO msg=stats a_total=4 b=0.25 c=+Inf\n"; b.String() != want {
		t.Fatalf("summary line %q, want %q", b.String(), want)
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "", L("path", `a"b\c`+"\n"))
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\"b\\c\n"} 0`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaping: got %q, want it to contain %q", b.String(), want)
	}
}

func TestHealthTransitions(t *testing.T) {
	h := NewHealth()
	if overall, _ := h.Snapshot(); overall != StatusOK {
		t.Fatalf("empty health = %v, want ok", overall)
	}
	h.Set("noc", StatusOK, "serving")
	h.Set("detector", StatusDegraded, "no model built")
	if overall, _ := h.Snapshot(); overall != StatusDegraded {
		t.Fatalf("overall = %v, want degraded", overall)
	}
	h.Set("detector", StatusOK, "model fresh")
	if overall, _ := h.Snapshot(); overall != StatusOK {
		t.Fatalf("overall = %v, want ok", overall)
	}
	h.Set("noc", StatusDown, "shut down")
	overall, comps := h.Snapshot()
	if overall != StatusDown {
		t.Fatalf("overall = %v, want down", overall)
	}
	if comps["detector"].Status != StatusOK || comps["noc"].Detail != "shut down" {
		t.Fatalf("components = %+v", comps)
	}
}

func TestHealthzEndpointStatusCodes(t *testing.T) {
	h := NewHealth()
	h.Set("svc", StatusOK, "")

	get := func() (int, healthResponse) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var body healthResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("healthz body: %v", err)
		}
		return rec.Code, body
	}

	if code, body := get(); code != http.StatusOK || body.Status != StatusOK {
		t.Fatalf("ok state: code=%d body=%+v", code, body)
	}
	h.Set("svc", StatusDegraded, "partial")
	if code, body := get(); code != http.StatusOK || body.Status != StatusDegraded {
		t.Fatalf("degraded state: code=%d body=%+v", code, body)
	}
	h.Set("svc", StatusDown, "gone")
	if code, body := get(); code != http.StatusServiceUnavailable || body.Status != StatusDown {
		t.Fatalf("down state: code=%d body=%+v", code, body)
	}
}

func TestDiagnosticsServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("diag_total", "diagnostics test").Add(7)
	health := NewHealth()
	health.Set("svc", StatusOK, "fine")

	srv, err := StartServer("127.0.0.1:0", reg, health, Nop())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fetch := func(path string) (int, string, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := fetch("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "diag_total 7") {
		t.Fatalf("/metrics code=%d body=%q", code, body)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics content-type = %q", ctype)
	}

	code, body, ctype = fetch("/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz code=%d body=%q", code, body)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/healthz content-type = %q", ctype)
	}

	if code, _, _ = fetch("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ code = %d", code)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}

func TestLoggerComponentAttr(t *testing.T) {
	var b strings.Builder
	log := NewLogger(&b, nil, "noc")
	log.Info("hello", "k", 1)
	line := b.String()
	if !strings.Contains(line, "component=noc") || !strings.Contains(line, "msg=hello") {
		t.Fatalf("log line = %q", line)
	}
	// Nop must swallow everything without panicking.
	Nop().With("a", "b").Error("dropped", "err", fmt.Errorf("x"))
}
