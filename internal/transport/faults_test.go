package transport

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/faults"
	"streampca/internal/sketch"
)

// recvOne reads a single envelope on its own goroutine (net.Pipe is
// unbuffered, so Send blocks until the peer reads).
func recvOne(c *Conn) (<-chan Envelope, <-chan error) {
	envCh := make(chan Envelope, 1)
	errCh := make(chan error, 1)
	go func() {
		e, err := c.Recv()
		if err != nil {
			errCh <- err
			return
		}
		envCh <- e
	}()
	return envCh, errCh
}

func TestFaultDropOnSend(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	a.SetFaults(faults.MustPlan(1, faults.Rule{Dir: faults.DirSend, Type: "volume", Count: 1, Drop: true}))

	envCh, errCh := recvOne(b)
	// First volume is dropped; the alarm that follows is what arrives.
	if err := a.Send(Envelope{Volume: &VolumeReport{MonitorID: "m", Interval: 1}}); err != nil {
		t.Fatalf("dropped send must look successful: %v", err)
	}
	if err := a.Send(Envelope{Alarm: &Alarm{Interval: 7}}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-envCh:
		if e.Alarm == nil || e.Alarm.Interval != 7 {
			t.Fatalf("got %+v, want the alarm (volume dropped)", e)
		}
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(2 * time.Second):
		t.Fatal("receiver starved")
	}
}

func TestFaultDropOnRecv(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	b.SetFaults(faults.MustPlan(1, faults.Rule{Dir: faults.DirRecv, Type: "volume", Count: 1, Drop: true}))

	envCh, errCh := recvOne(b)
	if err := a.Send(Envelope{Volume: &VolumeReport{MonitorID: "m", Interval: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(Envelope{Alarm: &Alarm{Interval: 9}}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-envCh:
		if e.Alarm == nil || e.Alarm.Interval != 9 {
			t.Fatalf("got %+v, want the alarm (volume swallowed by recv)", e)
		}
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(2 * time.Second):
		t.Fatal("receiver starved")
	}
}

func TestFaultDelay(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	const d = 60 * time.Millisecond
	a.SetFaults(faults.MustPlan(1, faults.Rule{Dir: faults.DirSend, Delay: d}))

	envCh, errCh := recvOne(b)
	start := time.Now()
	if err := a.Send(Envelope{Alarm: &Alarm{Interval: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-envCh:
		if el := time.Since(start); el < d {
			t.Fatalf("delivered after %v, want >= %v", el, d)
		}
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(2 * time.Second):
		t.Fatal("receiver starved")
	}
}

// TestFaultCorruptResponse: a Corrupt rule on sketch_response damages the
// payload of either family, in either encoding (randproj columns framed, FD
// in gob), so the receiver's Validate fails, and never touches the sender's
// arrays.
func TestFaultCorruptResponse(t *testing.T) {
	randproj := core.SketchReport{
		Interval: 3, FlowIDs: []int{0, 1},
		Sketches: [][]float64{{1, 2}, {3, 4}},
		Means:    []float64{1, 1},
	}
	fd := core.SketchReport{
		Interval: 3, FlowIDs: []int{0, 1}, Means: []float64{1, 1},
		Family: sketch.FamilyFD, FDRows: [][]float64{{1, -1}, {0.5, 0.25}}, FDDelta: 0.5, FDEll: 2,
	}
	fdNoRows := fd
	fdNoRows.FDRows = nil

	for _, tc := range []struct {
		name string
		rep  core.SketchReport
	}{
		{"randproj/frame", randproj},
		{"fd/rows", fd},
		{"fd/delta", fdNoRows},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b, tap := tappedPipe(nil)
			defer a.Close()
			defer b.Close()
			a.SetFaults(faults.MustPlan(1, faults.Rule{Dir: faults.DirSend, Type: "sketch_response", Corrupt: true}))

			sketches, rows := cloneRows(tc.rep.Sketches), cloneRows(tc.rep.FDRows)
			envCh, errCh := recvOne(b)
			if err := a.Send(Envelope{Response: &SketchResponse{RequestID: 5, MonitorID: "m", Report: tc.rep}}); err != nil {
				t.Fatal(err)
			}
			select {
			case e := <-envCh:
				if e.Response.Report.Validate(2) == nil {
					t.Fatalf("corrupted report passed validation: %+v", e.Response.Report)
				}
			case err := <-errCh:
				t.Fatal(err)
			case <-time.After(2 * time.Second):
				t.Fatal("receiver starved")
			}
			// The damage crossed the wire inside a well-formed frame.
			var wire Envelope
			if _, err := decodeFrame(tap.read.Bytes()[len(preamble):], &wire); err != nil || wire.Response.Report.Validate(2) == nil {
				t.Fatalf("the frame on the wire: %v, %+v", err, wire.Response)
			}
			if !reflect.DeepEqual(tc.rep.Sketches, sketches) || !reflect.DeepEqual(tc.rep.FDRows, rows) {
				t.Fatalf("corruption leaked into the sender's report: %+v", tc.rep)
			}
		})
	}
}

func cloneRows(rows [][]float64) [][]float64 {
	if rows == nil {
		return nil
	}
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

func TestFaultDisconnect(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	a.SetFaults(faults.MustPlan(1, faults.Rule{Dir: faults.DirSend, Type: "volume", Disconnect: true}))

	err := a.Send(Envelope{Volume: &VolumeReport{MonitorID: "m", Interval: 1}})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("disconnect fault: %v", err)
	}
	if err := a.Send(Envelope{Alarm: &Alarm{}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("conn must stay closed: %v", err)
	}
}

func TestServerInstallsInjector(t *testing.T) {
	// A server-side recv-drop plan swallows the first volume the handler
	// would otherwise see.
	seen := make(chan string, 16)
	plan := faults.MustPlan(1, faults.Rule{Dir: faults.DirRecv, Type: "volume", Count: 1, Drop: true})
	srv, err := ListenWithOptions("127.0.0.1:0", func(c *Conn) {
		for {
			e, err := c.Recv()
			if err != nil {
				return
			}
			seen <- e.TypeName()
		}
	}, nil, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	c, err := Dial(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(Envelope{Volume: &VolumeReport{MonitorID: "m", Interval: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(Envelope{Alarm: &Alarm{Interval: 2}}); err != nil {
		t.Fatal(err)
	}
	select {
	case typ := <-seen:
		if typ != "alarm" {
			t.Fatalf("handler saw %q first, want the volume dropped", typ)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler starved")
	}
	if plan.Fired(0) != 1 {
		t.Fatalf("plan fired %d times: %s", plan.Fired(0), plan)
	}
}
