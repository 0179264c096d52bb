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
	c, err := ListenN("127.0.0.1:0", 1, p)
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

// TestCollectorListenNMultiSocket: four collectors on one ephemeral address
// must all bind the same port (SO_REUSEPORT group) and jointly deliver every
// datagram, from several sender sockets, exactly once.
func TestCollectorListenNMultiSocket(t *testing.T) {
	p, rec := newTestPipeline(t, nil)
	c, err := ListenN("127.0.0.1:0", 4, p)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if reusePortSupported && c.Sockets() != 4 {
		t.Fatalf("bound %d sockets, want 4", c.Sockets())
	}

	const senders, per = 4, 25
	for s := 0; s < senders; s++ {
		conn, err := net.Dial("udp", c.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < per; i++ {
			if _, err := conn.Write(dgram(t, uint32(s*per+i), 42, 0, 1, 100)); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close()
	}
	waitCounter(t, func() int64 { return p.Metrics().Records.Value() }, senders*per)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	got := rec.snapshot()
	if len(got) != 1 || got[0].Volumes[1] != senders*per*100 {
		t.Fatalf("collected volumes wrong: %+v", got)
	}
}

// TestCollectorListenNSingleReaderFallback: n readers sharing one socket is
// the portable layout; it must deliver everything too.
func TestCollectorListenNSingleReaderFallback(t *testing.T) {
	p, _ := newTestPipeline(t, nil)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := &Collector{pcs: []net.PacketConn{pc}, p: p}
	for i := 0; i < 3; i++ {
		c.wg.Add(1)
		go c.readLoop(pc)
	}
	defer c.Close()

	conn, err := net.Dial("udp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 30; i++ {
		if _, err := conn.Write(dgram(t, uint32(i), 42, 0, 1, 100)); err != nil {
			t.Fatal(err)
		}
	}
	waitCounter(t, func() int64 { return p.Metrics().Records.Value() }, 30)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
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
	c := &Collector{pcs: []net.PacketConn{fc}, p: p}
	start := time.Now()
	c.wg.Add(1)
	go c.readLoop(fc)

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
	c, err := ListenN("127.0.0.1:0", 1, p)
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
