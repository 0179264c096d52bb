package transport

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streampca/internal/faults"
	"streampca/internal/sketch"
)

// Conn is a framed, bidirectional message connection. Sends are serialized
// internally; Recv must be called from a single reader goroutine.
type Conn struct {
	raw io.ReadWriteCloser
	m   *Metrics
	inj faults.Injector

	sendMu sync.Mutex
	enc    *gob.Encoder
	dec    *gob.Decoder

	// peerReadsFrame is the ReadsFrame bit of the last SketchRequest Recv
	// returned: whether Send may pack a response's columns as a ColumnsFrame.
	peerReadsFrame atomic.Bool

	closeOnce sync.Once
	closeErr  error
}

// framePool holds the buffers Send packs ColumnsFrames into. Gob copies the
// frame into its own buffer during Encode, so a buffer is back in the pool
// as soon as Encode returns, and a connection keeps none between pulls.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// NewConnWithMetrics wraps an established stream (net.Conn or an in-memory
// pipe) and records wire traffic on m (nil disables instrumentation).
func NewConnWithMetrics(raw io.ReadWriteCloser, m *Metrics) *Conn {
	registerTypes()
	stream := raw
	if m != nil {
		stream = &countingStream{raw: raw, m: m}
	}
	m.connOpened()
	return &Conn{
		raw: stream,
		m:   m,
		enc: gob.NewEncoder(stream),
		dec: gob.NewDecoder(stream),
	}
}

// SetFaults installs a fault injector consulted on every subsequent Send
// and Recv (chaos testing); nil restores the no-op default. Install it
// before traffic flows — the injector pointer itself is not synchronized
// with in-flight messages.
func (c *Conn) SetFaults(inj faults.Injector) { c.inj = inj }

// Dial connects to a NOC or monitor endpoint over TCP.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	return DialWithMetrics(addr, timeout, nil)
}

// DialWithMetrics is Dial with wire instrumentation on m.
func DialWithMetrics(addr string, timeout time.Duration, m *Metrics) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return NewConnWithMetrics(c, m), nil
}

// Send writes one envelope. It is safe for concurrent use. It sets
// ReadsFrame on every SketchRequest, and packs a randproj response's
// equal-length columns as a ColumnsFrame when the peer's last request set it;
// the caller's envelope is never modified.
func (c *Conn) Send(e Envelope) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if c.inj != nil {
		o := c.inj.Decide(faults.DirSend, e.TypeName())
		if o.Delay > 0 {
			time.Sleep(o.Delay)
		}
		if o.Disconnect {
			_ = c.Close()
			return fmt.Errorf("%w: fault injection", ErrClosed)
		}
		if o.Drop {
			return nil // the caller believes the message was sent
		}
		if o.Corrupt {
			e = corruptEnvelope(e)
		}
	}
	if e.Request != nil && !e.Request.ReadsFrame {
		r := *e.Request
		r.ReadsFrame = true
		e.Request = &r
	}
	if r := e.Response; r != nil && r.Report.Family == sketch.FamilyRandProj &&
		c.peerReadsFrame.Load() && frameable(r.Report.Sketches) {
		buf := framePool.Get().(*[]byte)
		defer framePool.Put(buf)
		*buf = appendColumns((*buf)[:0], r.Report.Sketches)
		framed := *r
		framed.Report.Sketches = nil
		framed.Columns = &ColumnsFrame{packed: *buf}
		e.Response = &framed
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if err := c.enc.Encode(&e); err != nil {
		c.m.encodeError()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) {
			return fmt.Errorf("%w: %v", ErrClosed, err)
		}
		return fmt.Errorf("send: %w", err)
	}
	c.m.sentMsg(e.TypeName())
	return nil
}

// Recv reads the next envelope. Only one goroutine may call Recv.
func (c *Conn) Recv() (Envelope, error) {
	for {
		var e Envelope
		if err := c.dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
				return Envelope{}, fmt.Errorf("%w: %v", ErrClosed, err)
			}
			c.m.decodeError()
			return Envelope{}, fmt.Errorf("recv: %w", err)
		}
		if err := e.Validate(); err != nil {
			c.m.decodeError()
			return Envelope{}, err
		}
		if e.Request != nil {
			c.peerReadsFrame.Store(e.Request.ReadsFrame)
		}
		if r := e.Response; r != nil && r.Columns != nil {
			r.Report.Sketches, r.Columns = r.Columns.cols, nil
		}
		if c.inj != nil {
			o := c.inj.Decide(faults.DirRecv, e.TypeName())
			if o.Delay > 0 {
				time.Sleep(o.Delay)
			}
			if o.Disconnect {
				_ = c.Close()
				return Envelope{}, fmt.Errorf("%w: fault injection", ErrClosed)
			}
			if o.Drop {
				continue // the message is never seen by the caller
			}
			if o.Corrupt {
				e = corruptEnvelope(e)
			}
		}
		c.m.recvMsg(e.TypeName())
		return e, nil
	}
}

// corruptEnvelope returns a copy of e with its payload damaged in a way the
// receiver's validators detect (non-finite values, mismatched arrays, bogus
// ids) — never in a way that breaks gob framing, so the connection itself
// survives. Mutated fields are deep-copied first: payload slices may be
// shared with live sketch state on the sending side.
func corruptEnvelope(e Envelope) Envelope {
	switch {
	case e.Hello != nil:
		h := *e.Hello
		h.Seed = ^h.Seed
		e.Hello = &h
	case e.Volume != nil:
		v := *e.Volume
		// Mismatch the parallel arrays; the NOC drops such reports.
		if len(v.Volumes) > 0 {
			v.Volumes = append([]float64(nil), v.Volumes[:len(v.Volumes)-1]...)
		}
		e.Volume = &v
	case e.Request != nil:
		r := *e.Request
		r.RequestID = ^r.RequestID
		e.Request = &r
	case e.Response != nil:
		r := *e.Response
		switch rep := &r.Report; {
		case len(rep.Sketches) > 0 && len(rep.Sketches[0]) > 0:
			rep.Sketches = withNaN(rep.Sketches)
		case len(rep.FDRows) > 0 && len(rep.FDRows[0]) > 0:
			rep.FDRows = withNaN(rep.FDRows)
		case rep.Family == sketch.FamilyFD:
			rep.FDDelta = math.NaN()
		}
		e.Response = &r
	case e.Alarm != nil:
		a := *e.Alarm
		a.Distance = math.NaN()
		e.Alarm = &a
	}
	return e
}

// withNaN returns rows with rows[0][0] set to NaN, copying the outer slice
// and that row so the caller's arrays stay untouched.
func withNaN(rows [][]float64) [][]float64 {
	out := append([][]float64(nil), rows...)
	out[0] = append([]float64(nil), rows[0]...)
	out[0][0] = math.NaN()
	return out
}

// Close tears the connection down; subsequent Sends and Recvs fail.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.closeErr = c.raw.Close()
		c.m.connClosed()
	})
	return c.closeErr
}

// Pipe returns two in-memory connected Conns with the same semantics as a
// TCP pair — the test transport.
func Pipe() (*Conn, *Conn) {
	return PipeWithMetrics(nil, nil)
}

// PipeWithMetrics is Pipe with per-end instrumentation (either may be nil).
func PipeWithMetrics(ma, mb *Metrics) (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConnWithMetrics(a, ma), NewConnWithMetrics(b, mb)
}
