package ingest

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// readBufferBytes is the kernel receive buffer requested for the collector
// socket. NetFlow exporters are fire-and-forget UDP senders, so this buffer
// is the only slack between an export burst and datagram loss; 4 MiB absorbs
// roughly a second of a saturated gigabit export stream. SetReadBuffer is
// best-effort — the kernel may clamp it (rmem_max) — so failure is logged,
// not fatal.
const readBufferBytes = 4 << 20

// Backoff bounds for transient socket read errors. A broken exporter (or an
// ICMP port-unreachable storm reflected back at the socket) can make ReadFrom
// fail continuously; without a backoff the read loop would spin-log at 100%
// CPU. Errors sleep exponentially from readBackoffMin up to readBackoffMax
// and any successful read resets the backoff.
const (
	readBackoffMin = time.Millisecond
	readBackoffMax = time.Second
)

// Collector is the UDP front door of the ingest pipeline: one socket and
// one goroutine reading datagrams into a reused buffer and handing each to
// Pipeline.HandleDatagram. NetFlow exporters are fire-and-forget UDP senders,
// so the collector's only flow control is the kernel socket buffer; overload
// beyond that surfaces as sequence gaps.
type Collector struct {
	pc net.PacketConn
	p  *Pipeline

	closed atomic.Bool   // Close was called: read errors are the shutdown
	done   chan struct{} // closed when the read loop has returned
}

// Listen opens a UDP socket on addr and starts its read loop.
func Listen(addr string, p *Pipeline) (*Collector, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: nil pipeline", ErrConfig)
	}
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("ingest: listen %s: %w", addr, err)
	}
	if uc, ok := pc.(*net.UDPConn); ok {
		if err := uc.SetReadBuffer(readBufferBytes); err != nil {
			p.log.Warn("collector: SetReadBuffer failed",
				"bytes", readBufferBytes, "err", err)
		}
	}
	return startCollector(pc, p), nil
}

// startCollector runs the read loop on an already-open socket.
func startCollector(pc net.PacketConn, p *Pipeline) *Collector {
	c := &Collector{pc: pc, p: p, done: make(chan struct{})}
	go c.readLoop()
	return c
}

// Addr returns the bound socket address.
func (c *Collector) Addr() string { return c.pc.LocalAddr().String() }

// readLoop reads datagrams until the socket closes. The buffer is reused
// across reads; HandleDatagram keeps nothing of it.
func (c *Collector) readLoop() {
	defer close(c.done)
	buf := make([]byte, 65536)
	backoff := time.Duration(0)
	for {
		n, _, err := c.pc.ReadFrom(buf)
		if err != nil {
			if c.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient read errors (e.g. ICMP-induced) are survivable, but
			// they can arrive in storms: back off exponentially so a wedged
			// socket logs once per second instead of spinning.
			if backoff == 0 {
				backoff = readBackoffMin
			} else if backoff *= 2; backoff > readBackoffMax {
				backoff = readBackoffMax
			}
			c.p.log.Warn("collector read error", "err", err, "backoff", backoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		if err := c.p.HandleDatagram(buf[:n]); err != nil {
			// ErrClosed: the pipeline shut down, or a fault plan demanded a
			// disconnect. Stop reading; Close sees an already-closed socket.
			_ = c.pc.Close()
			return
		}
	}
}

// Close stops the read loop and closes the socket. It does not close the
// pipeline — callers drain it separately so the open intervals survive
// shutdown. Safe to call multiple times.
func (c *Collector) Close() error {
	if c.closed.Swap(true) {
		<-c.done
		return nil
	}
	err := c.pc.Close()
	<-c.done
	if errors.Is(err, net.ErrClosed) {
		// The read loop already closed the socket (pipeline shutdown or a
		// disconnect fault); that is not a caller-visible failure.
		return nil
	}
	return err
}
