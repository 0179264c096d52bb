package transport

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"streampca/internal/core"
)

func TestEnvelopeValidate(t *testing.T) {
	if err := (&Envelope{}).Validate(); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("empty envelope: %v", err)
	}
	two := &Envelope{Hello: &Hello{}, Alarm: &Alarm{}}
	if err := two.Validate(); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("two payloads: %v", err)
	}
	one := &Envelope{Request: &SketchRequest{RequestID: 1}}
	if err := one.Validate(); err != nil {
		t.Fatalf("single payload: %v", err)
	}
}

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	want := Envelope{Volume: &VolumeReport{
		MonitorID: "mon-1",
		Interval:  42,
		FlowIDs:   []int{3, 7},
		Volumes:   []float64{1.5, 2.5},
	}}
	done := make(chan error, 1)
	go func() { done <- a.Send(want) }()
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got.Volume == nil || got.Volume.Interval != 42 || got.Volume.Volumes[1] != 2.5 {
		t.Fatalf("got %+v", got.Volume)
	}
}

func TestSketchResponseCarriesReport(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	rep := core.SketchReport{
		Interval: 9,
		FlowIDs:  []int{0, 1},
		Sketches: [][]float64{{1, 2, 3}, {4, 5, 6}},
		Means:    []float64{10, 20},
		Counts:   []int64{9, 9},
	}
	go func() {
		_ = a.Send(Envelope{Response: &SketchResponse{RequestID: 7, MonitorID: "m", Report: rep}})
	}()
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	r := got.Response
	if r == nil || r.RequestID != 7 || len(r.Report.Sketches) != 2 || r.Report.Sketches[1][2] != 6 {
		t.Fatalf("got %+v", got)
	}
}

func TestSendRejectsInvalidEnvelope(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.Send(Envelope{}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("invalid send: %v", err)
	}
}

func TestRecvAfterCloseReturnsErrClosed(t *testing.T) {
	a, b := Pipe()
	_ = a.Close()
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv on closed: %v", err)
	}
	// Double close is safe.
	if err := a.Close(); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestConcurrentSendsAreSerialized(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = a.Send(Envelope{Volume: &VolumeReport{Interval: int64(i)}})
		}(i)
	}
	seen := make(map[int64]bool, n)
	for i := 0; i < n; i++ {
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Volume == nil {
			t.Fatal("non-volume frame")
		}
		if seen[got.Volume.Interval] {
			t.Fatalf("duplicate frame %d", got.Volume.Interval)
		}
		seen[got.Volume.Interval] = true
	}
	wg.Wait()
}

func TestServerAcceptAndShutdown(t *testing.T) {
	type echoResult struct {
		got Envelope
		err error
	}
	results := make(chan echoResult, 4)
	srv, err := Listen("127.0.0.1:0", func(c *Conn) {
		for {
			e, err := c.Recv()
			if err != nil {
				return
			}
			results <- echoResult{got: e}
			if err := c.Send(e); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	cl, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	want := Envelope{Hello: &Hello{MonitorID: "m1", FlowIDs: []int{1, 2}, SketchLen: 4, WindowLen: 10, Seed: 99}}
	if err := cl.Send(want); err != nil {
		t.Fatal(err)
	}
	echo, err := cl.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if echo.Hello == nil || echo.Hello.MonitorID != "m1" || echo.Hello.Seed != 99 {
		t.Fatalf("echo = %+v", echo)
	}
	select {
	case r := <-results:
		if r.got.Hello == nil {
			t.Fatal("server saw wrong frame")
		}
	case <-time.After(time.Second):
		t.Fatal("server never handled the frame")
	}

	srv.Shutdown()
	// After shutdown the client connection dies.
	if _, err := cl.Recv(); err == nil {
		t.Fatal("recv after server shutdown must fail")
	}
	// Shutdown is idempotent.
	srv.Shutdown()
}

func TestRecvRejectsGarbageStream(t *testing.T) {
	// A peer writing junk bytes must produce an error, not a hang or panic.
	srv, err := Listen("127.0.0.1:0", func(c *Conn) {
		_, err := c.Recv()
		if err == nil {
			t.Error("garbage frame decoded successfully")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("this is not gob\xff\x00\x01")); err != nil {
		t.Fatal(err)
	}
	_ = raw.Close()
	srv.Shutdown() // waits for the handler, surfacing t.Error if any
}

func TestServerShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		srv, err := Listen("127.0.0.1:0", func(c *Conn) {
			for {
				if _, err := c.Recv(); err != nil {
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		var conns []*Conn
		for i := 0; i < 4; i++ {
			cl, err := Dial(srv.Addr(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			conns = append(conns, cl)
			if err := cl.Send(Envelope{Alarm: &Alarm{Interval: int64(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		srv.Shutdown()
		for _, c := range conns {
			_ = c.Close()
		}
	}
	// Allow the runtime to reap finished goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestListenRejectsNilHandler(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", nil); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("nil handler: %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 50*time.Millisecond); err == nil {
		t.Fatal("dial to closed port must fail")
	}
}
