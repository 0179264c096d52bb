package transport

import (
	"testing"
	"time"

	"streampca/internal/obs"
)

// counter pulls a registered counter back out of the registry (get-or-create
// identity makes this a read).
func counter(reg *obs.Registry, name string, labels ...obs.Label) int64 {
	return reg.Counter(name, "", labels...).Value()
}

func TestPipeMetricsCounters(t *testing.T) {
	regA := obs.NewRegistry()
	regB := obs.NewRegistry()
	a, b := PipeWithMetrics(NewMetrics(regA), NewMetrics(regB))

	recvCh := make(chan Envelope, 4)
	go func() {
		defer close(recvCh)
		for {
			env, err := b.Recv()
			if err != nil {
				return
			}
			recvCh <- env
		}
	}()

	for i := 0; i < 3; i++ {
		if err := a.Send(Envelope{Volume: &VolumeReport{MonitorID: "m", Interval: int64(i), FlowIDs: []int{0}, Volumes: []float64{1}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Send(Envelope{Alarm: &Alarm{Interval: 9}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		select {
		case <-recvCh:
		case <-time.After(2 * time.Second):
			t.Fatal("frame never arrived")
		}
	}

	const msgs = "streampca_transport_messages_total"
	if got := counter(regA, msgs, obs.L("direction", "sent"), obs.L("type", "volume")); got != 3 {
		t.Fatalf("A sent volume = %d", got)
	}
	if got := counter(regA, msgs, obs.L("direction", "sent"), obs.L("type", "alarm")); got != 1 {
		t.Fatalf("A sent alarm = %d", got)
	}
	if got := counter(regB, msgs, obs.L("direction", "recv"), obs.L("type", "volume")); got != 3 {
		t.Fatalf("B recv volume = %d", got)
	}
	if got := counter(regA, "streampca_transport_bytes_total", obs.L("direction", "sent")); got == 0 {
		t.Fatal("A counted no sent bytes")
	}
	if got := counter(regB, "streampca_transport_bytes_total", obs.L("direction", "recv")); got == 0 {
		t.Fatal("B counted no received bytes")
	}

	gaugeA := regA.Gauge("streampca_transport_connections_active", "")
	if gaugeA.Value() != 1 {
		t.Fatalf("A active connections = %v", gaugeA.Value())
	}
	_ = a.Close()
	_ = a.Close() // double close must not double-count
	_ = b.Close()
	if got := counter(regA, "streampca_transport_connections_total", obs.L("event", "closed")); got != 1 {
		t.Fatalf("A closed = %d", got)
	}
	if gaugeA.Value() != 0 {
		t.Fatalf("A active connections after close = %v", gaugeA.Value())
	}
}

func TestEncodeErrorCounted(t *testing.T) {
	reg := obs.NewRegistry()
	a, b := PipeWithMetrics(NewMetrics(reg), nil)
	_ = b.Close()
	// Sends into a closed pipe fail in the encoder.
	if err := a.Send(Envelope{Alarm: &Alarm{Interval: 1}}); err == nil {
		t.Fatal("send on closed pipe must fail")
	}
	if got := counter(reg, "streampca_transport_errors_total", obs.L("op", "encode")); got != 1 {
		t.Fatalf("encode errors = %d", got)
	}
	if got := counter(reg, "streampca_transport_messages_total", obs.L("direction", "sent"), obs.L("type", "alarm")); got != 0 {
		t.Fatalf("failed send still counted: %d", got)
	}
	_ = a.Close()
}

func TestServerMetricsOnAcceptedConns(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := ListenWithOptions("127.0.0.1:0", func(c *Conn) {
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	}, NewMetrics(reg), nil)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Send(Envelope{Alarm: &Alarm{Interval: 1}}); err != nil {
		t.Fatal(err)
	}
	// Wait until the server-side counters see the frame.
	deadline := time.Now().Add(2 * time.Second)
	for counter(reg, "streampca_transport_messages_total", obs.L("direction", "recv"), obs.L("type", "alarm")) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("server never counted the received alarm")
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = cl.Close()
	srv.Shutdown()
	if got := counter(reg, "streampca_transport_connections_total", obs.L("event", "opened")); got != 1 {
		t.Fatalf("server opened = %d", got)
	}
	if got := counter(reg, "streampca_transport_connections_total", obs.L("event", "closed")); got != 1 {
		t.Fatalf("server closed = %d", got)
	}
}
