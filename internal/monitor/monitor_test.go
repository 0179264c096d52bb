package monitor

import (
	"errors"
	"reflect"
	"testing"
	"time"

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
		Epsilon:   0.1,
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
	rep := svc.Report()
	if rep.Interval != 4 {
		t.Fatalf("sketch state at interval %d, want 4", rep.Interval)
	}
	for i, c := range rep.Counts {
		if c != 4 {
			t.Fatalf("flow %d summarizes %d intervals, want 4 (outage intervals lost)", rep.FlowIDs[i], c)
		}
	}
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
