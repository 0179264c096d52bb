package ingest

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// readBufferBytes is the kernel receive buffer requested per collector
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

// Collector is the UDP front door of the ingest pipeline: one or more
// sockets, each with a goroutine reading datagrams into a private reusable
// buffer and handing each to Pipeline.HandleDatagram. NetFlow exporters are
// fire-and-forget UDP senders, so the collector's only flow control is the
// kernel socket buffer; overload beyond that surfaces as sequence gaps.
//
// With n > 1 the collector prefers n independent SO_REUSEPORT sockets bound
// to the same address — the kernel then hashes datagrams across them, giving
// each reader a private socket buffer and lock — and falls back to n reader
// goroutines sharing one socket where the option is unavailable (ReadFrom is
// concurrency-safe).
type Collector struct {
	pcs []net.PacketConn
	p   *Pipeline

	mu     sync.Mutex
	closed bool
	// teardown closes every socket exactly once when any read loop observes
	// pipeline shutdown (the loops share the pipeline, so one seeing ErrClosed
	// means all must stop).
	teardown sync.Once
	wg       sync.WaitGroup
}

// ListenN opens up to n UDP sockets on addr and starts one read loop per
// socket (n < 1 is treated as 1). For n > 1 it attempts SO_REUSEPORT
// sockets; if the platform or kernel refuses, it falls back to a single
// socket read by n goroutines. Ephemeral addresses (port 0) work with
// either: the first socket binds the concrete port the rest then share.
func ListenN(addr string, n int, p *Pipeline) (*Collector, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: nil pipeline", ErrConfig)
	}
	if n < 1 {
		n = 1
	}
	c := &Collector{p: p}
	if n == 1 || !reusePortSupported {
		pc, err := net.ListenPacket("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("ingest: listen %s: %w", addr, err)
		}
		c.pcs = []net.PacketConn{pc}
	} else {
		pcs, err := listenReusePortGroup(addr, n)
		if err != nil {
			// SO_REUSEPORT can fail even where compiled in (old kernels,
			// exotic socket filters); degrade to the shared-socket layout
			// rather than refuse to start.
			p.log.Warn("collector: SO_REUSEPORT unavailable, sharing one socket",
				"sockets", n, "err", err)
			pc, lerr := net.ListenPacket("udp", addr)
			if lerr != nil {
				return nil, fmt.Errorf("ingest: listen %s: %w", addr, lerr)
			}
			c.pcs = []net.PacketConn{pc}
		} else {
			c.pcs = pcs
		}
	}
	for _, pc := range c.pcs {
		if uc, ok := pc.(*net.UDPConn); ok {
			if err := uc.SetReadBuffer(readBufferBytes); err != nil {
				p.log.Warn("collector: SetReadBuffer failed",
					"bytes", readBufferBytes, "err", err)
			}
		}
	}
	// With one socket, n loops share it; with SO_REUSEPORT, one loop each.
	loops := n
	if len(c.pcs) > 1 {
		loops = len(c.pcs)
	}
	for i := 0; i < loops; i++ {
		pc := c.pcs[i%len(c.pcs)]
		c.wg.Add(1)
		go c.readLoop(pc)
	}
	return c, nil
}

// listenReusePortGroup binds count SO_REUSEPORT UDP sockets to addr. For an
// ephemeral request (port 0) the first bind picks the concrete port and the
// remaining sockets join it — binding each to port 0 independently would
// scatter them across different ports.
func listenReusePortGroup(addr string, count int) ([]net.PacketConn, error) {
	pcs := make([]net.PacketConn, 0, count)
	first, err := listenReusePort(addr)
	if err != nil {
		return nil, err
	}
	pcs = append(pcs, first)
	bound := first.LocalAddr().String()
	for len(pcs) < count {
		pc, err := listenReusePort(bound)
		if err != nil {
			for _, prev := range pcs {
				_ = prev.Close()
			}
			return nil, err
		}
		pcs = append(pcs, pc)
	}
	return pcs, nil
}

// Addr returns the bound socket address (all sockets share it).
func (c *Collector) Addr() string { return c.pcs[0].LocalAddr().String() }

// Sockets reports how many UDP sockets the collector bound (1 when
// SO_REUSEPORT was unavailable and readers share a socket).
func (c *Collector) Sockets() int { return len(c.pcs) }

// readLoop reads datagrams from pc until the socket closes. The buffer is
// private to the loop and reused across reads; HandleDatagram copies what it
// keeps before returning.
func (c *Collector) readLoop(pc net.PacketConn) {
	defer c.wg.Done()
	buf := make([]byte, 65536)
	backoff := time.Duration(0)
	for {
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			if c.isClosed() || errors.Is(err, net.ErrClosed) {
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
			// ErrClosed: the pipeline shut down (or a fault plan demanded a
			// disconnect) — every loop must stop, so close all sockets.
			c.closeSockets()
			return
		}
	}
}

func (c *Collector) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// closeSockets closes every socket exactly once (read loops racing Close).
func (c *Collector) closeSockets() (err error) {
	c.teardown.Do(func() {
		for _, pc := range c.pcs {
			if cerr := pc.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}

// Close stops the read loops and closes the sockets. It does not close the
// pipeline — callers drain it separately so queued records survive
// shutdown. Safe to call multiple times.
func (c *Collector) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.closeSockets()
	c.wg.Wait()
	if errors.Is(err, net.ErrClosed) {
		// A read loop already closed the sockets (pipeline shutdown or a
		// disconnect fault); that is not a caller-visible failure.
		return nil
	}
	return err
}
