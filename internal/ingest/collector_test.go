package ingest

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"streampca/internal/faults"
)

func TestCollectorReceivesOverUDP(t *testing.T) {
	p, rec := newTestPipeline(t, nil)
	c, err := Listen("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn, err := net.Dial("udp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 10; i++ {
		if _, err := conn.Write(dgram(t, uint32(i), 42, 0, 1, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Loopback UDP is reliable in practice but asynchronous; wait on the
	// decode counter rather than sleeping.
	waitCounter(t, func() int64 { return p.Metrics().Records.Value() }, 10)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	got := rec.snapshot()
	if len(got) != 1 || got[0].Volumes[1] != 1000 {
		t.Fatalf("collected volumes wrong: %+v", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err) // double Close is a no-op
	}
}

// flakyConn is a PacketConn whose ReadFrom fails transiently a fixed number
// of times before delivering one datagram and then behaving closed.
type flakyConn struct {
	net.PacketConn // embeds a real (unused for reads) socket for LocalAddr
	failures       int32
	payload        []byte
	delivered      atomic.Bool
	closed         chan struct{}
}

func (f *flakyConn) ReadFrom(b []byte) (int, net.Addr, error) {
	if atomic.AddInt32(&f.failures, -1) >= 0 {
		return 0, nil, errors.New("simulated ICMP port unreachable")
	}
	if f.delivered.CompareAndSwap(false, true) {
		return copy(b, f.payload), f.PacketConn.LocalAddr(), nil
	}
	<-f.closed
	return 0, nil, net.ErrClosed
}

func (f *flakyConn) Close() error {
	select {
	case <-f.closed:
	default:
		close(f.closed)
	}
	return f.PacketConn.Close()
}

// TestCollectorReadLoopBacksOffOnTransientErrors: a storm of transient read
// errors must not spin the loop — with k consecutive failures the loop sleeps
// the geometric backoff series, so total elapsed time is bounded below; the
// datagram after the storm must still be delivered.
func TestCollectorReadLoopBacksOffOnTransientErrors(t *testing.T) {
	p, _ := newTestPipeline(t, nil)
	real, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const failures = 4
	fc := &flakyConn{
		PacketConn: real,
		failures:   failures,
		payload:    dgram(t, 1, 42, 0, 1, 100),
		closed:     make(chan struct{}),
	}
	start := time.Now()
	c := startCollector(fc, p)

	waitCounter(t, func() int64 { return p.Metrics().Records.Value() }, 1)
	// 4 consecutive failures sleep 1+2+4+8 ms before the successful read.
	if min := 15 * time.Millisecond; time.Since(start) < min {
		t.Fatalf("read loop recovered in %v; backoff should enforce ≥ %v", time.Since(start), min)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorSurvivesGarbageAndStopsOnDisconnectFault(t *testing.T) {
	plan := faults.MustPlan(3,
		faults.Rule{Dir: faults.DirRecv, Type: "netflow", After: 3, Disconnect: true})
	p, _ := newTestPipeline(t, func(c *Config) { c.Faults = plan })
	c, err := Listen("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn, err := net.Dial("udp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Write([]byte("not netflow")); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, func() int64 { return p.Metrics().DecodeErrors.Value() }, 1)
	if _, err := conn.Write(dgram(t, 0, 42, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, func() int64 { return p.Metrics().Records.Value() }, 1)

	// Keep sending until the disconnect rule fires and the collector
	// closes its socket. Once that happens a connected UDP sender can see
	// ICMP-induced write errors — those are expected, not failures.
	deadline := time.Now().Add(5 * time.Second)
	for plan.Fired(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect rule never fired")
		}
		_, _ = conn.Write(dgram(t, 1, 42, 0, 1, 1))
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
