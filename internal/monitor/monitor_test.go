package monitor

import (
	"errors"
	"io"
	"log/slog"
	"reflect"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/randproj"
	"streampca/internal/tier"
	"streampca/internal/transport"
)

// startReader pumps frames from conn into a channel. net.Pipe is
// unbuffered, so every monitor send blocks until the fake NOC reads — a
// persistent reader goroutine must exist before Attach.
func startReader(conn *transport.Conn) <-chan transport.Envelope {
	ch := make(chan transport.Envelope, 64)
	go func() {
		defer close(ch)
		for {
			env, err := conn.Recv()
			if err != nil {
				return
			}
			ch <- env
		}
	}()
	return ch
}

// expectFrame pulls the next frame with a timeout.
func expectFrame(t *testing.T, ch <-chan transport.Envelope) transport.Envelope {
	t.Helper()
	select {
	case env, ok := <-ch:
		if !ok {
			t.Fatal("connection closed while expecting a frame")
		}
		return env
	case <-time.After(2 * time.Second):
		t.Fatal("timed out expecting a frame")
		return transport.Envelope{}
	}
}

func testConfig() Config {
	return Config{
		ID:        "mon-1",
		FlowIDs:   []int{0, 1, 2},
		WindowLen: 16,
		Sketch:    randproj.Config{Seed: 7, SketchLen: 4},
	}
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig()
	cfg.ID = ""
	if _, err := New(cfg); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty id: %v", err)
	}
	cfg = testConfig()
	cfg.Sketch.SketchLen = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("bad sketch config must fail")
	}
	cfg = testConfig()
	cfg.FlowIDs = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("no flows must fail")
	}
	svc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if svc.ID() != "mon-1" {
		t.Fatalf("id = %q", svc.ID())
	}
}

func TestReportIntervalRequiresConnection(t *testing.T) {
	svc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.ReportInterval(1, []float64{1, 2, 3}); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("not connected: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("close before connect: %v", err)
	}
}

// TestReportIntervalFoldsWhileDisconnected: intervals measured during a link
// outage are in hand, so they must reach the sketch state even though the
// volume report cannot be sent.
func TestReportIntervalFoldsWhileDisconnected(t *testing.T) {
	svc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if err := svc.ReportInterval(i, []float64{10, 20, 30}); !errors.Is(err, ErrNotConnected) {
			t.Fatalf("interval %d with no connection: %v", i, err)
		}
	}
	local, remote := transport.Pipe()
	recvCh := startReader(remote)
	if err := svc.Attach(local); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if hello := expectFrame(t, recvCh); hello.Hello == nil {
		t.Fatalf("first frame = %+v, want hello", hello)
	}
	if err := svc.ReportInterval(4, []float64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	if vol := expectFrame(t, recvCh); vol.Volume == nil || vol.Volume.Interval != 4 {
		t.Fatalf("volume = %+v", vol.Volume)
	}
	// The sketch state itself, read from the histograms: a pull (Report)
	// leaves the newest interval out.
	svc.Inspect(func(m *core.Monitor) {
		if m.Now() != 4 {
			t.Fatalf("sketch state at interval %d, want 4", m.Now())
		}
		for i, f := range m.FlowIDs() {
			if c := m.Histogram(i).Count(); c != 4 {
				t.Fatalf("flow %d summarizes %d intervals, want 4 (outage intervals lost)", f, c)
			}
		}
	})
}

func TestHandshakeAndVolumeReports(t *testing.T) {
	svc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	local, remote := transport.Pipe()
	recvCh := startReader(remote)
	if err := svc.Attach(local); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	hello := expectFrame(t, recvCh)
	if hello.Hello == nil || hello.Hello.MonitorID != "mon-1" ||
		hello.Hello.SketchLen != 4 || hello.Hello.WindowLen != 16 || hello.Hello.Seed != 7 {
		t.Fatalf("hello = %+v", hello.Hello)
	}

	if err := svc.ReportInterval(1, []float64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	vol := expectFrame(t, recvCh)
	if vol.Volume == nil || vol.Volume.Interval != 1 || vol.Volume.Volumes[2] != 30 {
		t.Fatalf("volume = %+v", vol.Volume)
	}

	// Double attach rejected.
	if err := svc.Attach(local); !errors.Is(err, tier.ErrAlreadyConnected) {
		t.Fatalf("double attach: %v", err)
	}
}

func TestSketchRequestServed(t *testing.T) {
	svc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	local, remote := transport.Pipe()
	recvCh := startReader(remote)
	if err := svc.Attach(local); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if env := expectFrame(t, recvCh); env.Hello == nil {
		t.Fatalf("expected hello, got %+v", env)
	}

	for i := 1; i <= 20; i++ {
		if err := svc.ReportInterval(int64(i), []float64{float64(i), 5, float64(2 * i)}); err != nil {
			t.Fatal(err)
		}
		if env := expectFrame(t, recvCh); env.Volume == nil {
			t.Fatalf("expected volume report, got %+v", env)
		}
	}

	if err := remote.Send(transport.Envelope{Request: &transport.SketchRequest{RequestID: 77}}); err != nil {
		t.Fatal(err)
	}
	env := expectFrame(t, recvCh)
	resp := env.Response
	if resp == nil || resp.RequestID != 77 || resp.MonitorID != "mon-1" {
		t.Fatalf("response = %+v", resp)
	}
	if err := resp.Report.Validate(4); err != nil {
		t.Fatal(err)
	}
	if resp.Report.Interval != 20 || len(resp.Report.Sketches) != 3 {
		t.Fatalf("report = %+v", resp.Report)
	}
	// Local inspection agrees.
	localRep := svc.Report()
	if localRep.Interval != 20 {
		t.Fatalf("local report interval = %d", localRep.Interval)
	}
}

// TestReceivedAlarmAllocatesNothing: once the link has decoded one alarm,
// a traced alarm naming culprits costs the monitor no allocation, from its
// frame to the callback, under a logger that drops warnings.
func TestReceivedAlarmAllocatesNothing(t *testing.T) {
	got := make(chan int64, 1)
	cfg := testConfig()
	cfg.Log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
	cfg.OnAlarm = func(a transport.Alarm) { got <- a.Interval }
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
	alarm := transport.Alarm{Interval: 5, Distance: 9, Threshold: 3, Identified: []transport.IdentifiedFlow{
		{Flow: 1, Amount: 2e5, Confidence: 0.9}, {Flow: 2, Amount: 1e5, Confidence: 0.6}}}
	env := transport.Envelope{Alarm: &alarm, Trace: &transport.TraceContext{TraceID: 7, SpanID: 9}}
	receive := func() {
		if err := remote.Send(env); err != nil {
			t.Fatal(err)
		}
		if i := <-got; i != alarm.Interval {
			t.Fatalf("alarm for interval %d, sent %d", i, alarm.Interval)
		}
	}
	receive()
	if n := testing.AllocsPerRun(50, receive); n != 0 {
		t.Fatalf("a received alarm allocates %v times", n)
	}
}

func TestAlarmCallback(t *testing.T) {
	alarms := make(chan transport.Alarm, 1)
	cfg := testConfig()
	cfg.OnAlarm = func(a transport.Alarm) { alarms <- a }
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
	if env := expectFrame(t, recvCh); env.Hello == nil { // hello
		t.Fatalf("expected hello, got %+v", env)
	}
	want := transport.Alarm{Interval: 5, Distance: 9, Threshold: 3}
	if err := remote.Send(transport.Envelope{Alarm: &want}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-alarms:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("alarm = %+v", got)
		}
	case <-time.After(time.Second):
		t.Fatal("alarm callback never fired")
	}
}

func TestProtocolErrorStopsReader(t *testing.T) {
	svc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	local, remote := transport.Pipe()
	recvCh := startReader(remote)
	if err := svc.Attach(local); err != nil {
		t.Fatal(err)
	}
	if env := expectFrame(t, recvCh); env.Hello == nil { // hello
		t.Fatalf("expected hello, got %+v", env)
	}
	if err := remote.Send(transport.Envelope{Error: &transport.ProtocolError{Msg: "rejected"}}); err != nil {
		t.Fatal(err)
	}
	// Close must not hang even though the reader exited on its own.
	done := make(chan struct{})
	go func() {
		_ = svc.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("close hung after protocol error")
	}
}

func TestCloseUnblocksReader(t *testing.T) {
	svc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	local, remote := transport.Pipe()
	go func() {
		// Drain the hello so Attach's Send doesn't block on the pipe.
		_, _ = remote.Recv()
	}()
	if err := svc.Attach(local); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		_ = svc.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("close hung")
	}
	// Idempotent.
	if err := svc.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// announced is an upstream's parameter announcement for the test deployment.
func announced() transport.Hello {
	return tier.Stated(core.Params{NumFlows: 8, WindowLen: 16, SketchLen: 4, Seed: 7}, transport.Hello{})
}

// TestAdoptsTheAnnouncement: a monitor built without parameters states none,
// builds its sketch state from the announcement before Attach returns, and
// registers again under the adopted parameters with its flows.
func TestAdoptsTheAnnouncement(t *testing.T) {
	cfg := Config{ID: "mon-1", FlowIDs: []int{0, 1, 2}}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	if err := svc.ReportInterval(1, []float64{1, 2, 3}); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("ReportInterval before adoption = %v, want ErrNotConnected", err)
	}
	local, remote := transport.Pipe()
	recvCh := startReader(remote)
	attached := make(chan error, 1)
	go func() { attached <- svc.Attach(local) }()
	if env := expectFrame(t, recvCh); env.Hello == nil || env.Hello.WindowLen != 0 || len(env.Hello.FlowIDs) != 0 {
		t.Fatalf("first Hello = %+v, want one stating no parameters and no flows", env.Hello)
	}
	a := announced()
	if err := remote.Send(transport.Envelope{Hello: &a}); err != nil {
		t.Fatal(err)
	}
	if err := <-attached; err != nil {
		t.Fatal(err)
	}
	re := expectFrame(t, recvCh)
	if re.Hello == nil || tier.ParamsOf(*re.Hello) != tier.ParamsOf(a) || !reflect.DeepEqual(re.Hello.FlowIDs, cfg.FlowIDs) {
		t.Fatalf("re-registration = %+v, want the adopted parameters and flows %v", re.Hello, cfg.FlowIDs)
	}
	if err := svc.ReportInterval(1, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}

// TestBadAnnouncementBuildsNoState: the announcement is input from another
// process; one with a zero window fails Attach and leaves the monitor
// without sketch state.
func TestBadAnnouncementBuildsNoState(t *testing.T) {
	zeroWindow := announced()
	zeroWindow.WindowLen = 0
	for name, bad := range map[string]transport.Hello{
		"zero window": zeroWindow,
	} {
		t.Run(name, func(t *testing.T) {
			svc, err := New(Config{ID: "mon-1", FlowIDs: []int{0, 1, 2}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = svc.Close() })
			local, remote := transport.Pipe()
			go func() {
				if _, err := remote.Recv(); err == nil {
					_ = remote.Send(transport.Envelope{Hello: &bad})
				}
			}()
			if err := svc.Attach(local); !errors.Is(err, tier.ErrParams) {
				t.Fatalf("Attach = %v, want tier.ErrParams", err)
			}
			if err := svc.ReportInterval(1, []float64{1, 2, 3}); !errors.Is(err, ErrNotConnected) {
				t.Fatalf("ReportInterval after a refused announcement = %v, want ErrNotConnected", err)
			}
		})
	}
}

// TestUntracedReportAllocatesNothing: with tracing off, folding an interval
// builds no span attributes or events, so the fold and its metrics allocate
// nothing (the link is down here, which leaves the send out).
func TestUntracedReportAllocatesNothing(t *testing.T) {
	svc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	vols := []float64{10, 20, 30}
	var ti int64
	if avg := testing.AllocsPerRun(100, func() {
		ti++
		if err := svc.ReportInterval(ti, vols); !errors.Is(err, ErrNotConnected) {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("an untraced ReportInterval allocates %v times", avg)
	}
}
