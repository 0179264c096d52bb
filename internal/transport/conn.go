package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"streampca/internal/faults"
	"streampca/internal/sketch"
)

// Conn is a framed, bidirectional message connection. Sends are serialized
// internally; Recv must be called from a single reader goroutine.
//
// Each direction keeps one buffer that grows to the largest message it has
// carried: Send encodes a frame into the write buffer and hands it to the
// stream in one Write, and the reader buffers what the stream delivers until
// a whole frame is there to decode. The preamble goes out with the first
// Send and is checked on the first Recv, so nothing is exchanged before the
// first message.
type Conn struct {
	raw io.ReadWriteCloser
	m   *Metrics
	inj faults.Injector

	sendMu sync.Mutex
	wbuf   []byte
	opened bool // the preamble went out

	// Reader state, owned by the Recv goroutine: rbuf[r:] is buffered and
	// unread. rerr sticks once the stream cannot be read on: a refused
	// preamble or a frame longer than maxFrame.
	rbuf    []byte
	r       int
	greeted bool // the peer's preamble was checked
	rerr    error

	closeOnce sync.Once
	closeErr  error
}

// minRead is the least the read buffer grows by.
const minRead = 512

// NewConnWithMetrics wraps an established stream (net.Conn or an in-memory
// pipe) and records wire traffic on m (nil disables instrumentation).
func NewConnWithMetrics(raw io.ReadWriteCloser, m *Metrics) *Conn {
	stream := raw
	if m != nil {
		stream = &countingStream{raw: raw, m: m}
	}
	m.connOpened()
	return &Conn{raw: stream, m: m}
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

// Send writes one envelope as one frame. It is safe for concurrent use, and
// the envelope's slices are read only until it returns.
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
			// Damage a copy that owns its arrays, made by a round trip
			// through the codec.
			frame, err := appendFrame(nil, &e)
			if err != nil {
				return err
			}
			var copied Envelope
			if _, err := decodeFrame(frame, &copied); err != nil {
				return err
			}
			corrupt(&copied)
			e = copied
		}
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	buf := c.wbuf[:0]
	if !c.opened {
		buf = append(buf, preamble[:]...)
	}
	buf, err := appendFrame(buf, &e)
	c.wbuf = buf
	if err == nil {
		_, err = c.raw.Write(buf)
	}
	if err != nil {
		c.m.encodeError()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) {
			return fmt.Errorf("%w: %v", ErrClosed, err)
		}
		return fmt.Errorf("send: %w", err)
	}
	c.opened = true
	c.m.sentMsg(e.TypeName())
	return nil
}

// Recv reads the next envelope into new values the caller owns. Only one
// goroutine may call Recv or RecvInto.
func (c *Conn) Recv() (Envelope, error) {
	var e Envelope
	err := c.RecvInto(&e)
	return e, err
}

// RecvInto reads the next envelope into e: a payload of the kind that
// arrived, and a TraceContext, is decoded into the value e already points
// to, reusing its slices' capacity, or into a new one, and e's other
// payload pointers are cleared. The caller decides what is recycled and must
// not hand a reused value to anyone who keeps it past the next RecvInto into
// it. On error e's payload values may hold a partial decode.
func (c *Conn) RecvInto(e *Envelope) error {
	into := *e
	for {
		if err := c.next(e); err != nil {
			return err
		}
		if c.inj != nil {
			o := c.inj.Decide(faults.DirRecv, e.TypeName())
			if o.Delay > 0 {
				time.Sleep(o.Delay)
			}
			if o.Disconnect {
				_ = c.Close()
				return fmt.Errorf("%w: fault injection", ErrClosed)
			}
			if o.Drop {
				*e = into
				continue // the message is never seen by the caller
			}
			if o.Corrupt {
				corrupt(e)
			}
		}
		c.m.recvMsg(e.TypeName())
		return nil
	}
}

// next reads and decodes one frame, checking the peer's preamble first.
func (c *Conn) next(e *Envelope) error {
	if c.rerr != nil {
		return c.rerr
	}
	if !c.greeted {
		if err := c.fill(len(preamble)); err != nil {
			return c.readError(err)
		}
		if err := checkPreamble(c.rbuf[c.r : c.r+len(preamble)]); err != nil {
			c.rerr = err
			c.m.decodeError()
			return err
		}
		c.r += len(preamble)
		c.greeted = true
	}
	if err := c.fill(frameHeader); err != nil {
		return c.readError(err)
	}
	n := binary.LittleEndian.Uint32(c.rbuf[c.r+1:])
	if n > maxFrame {
		c.rerr = fmt.Errorf("%w: frame declares %d bytes, the cap is %d", ErrBadMessage, n, maxFrame)
		c.m.decodeError()
		return c.rerr
	}
	if err := c.fill(frameHeader + int(n)); err != nil {
		return c.readError(err)
	}
	_, err := decodeFrame(c.rbuf[c.r:c.r+frameHeader+int(n)], e)
	c.r += frameHeader + int(n)
	if err != nil {
		c.m.decodeError()
	}
	return err
}

// fill reads until n unread bytes are buffered. A full buffer doubles, by at
// least minRead: never by more than its own size per read, so a frame that
// declares more than the peer sends costs memory in proportion to what
// arrived, and frames that grow a few bytes at a time (integer sums widening
// as a window fills) reallocate it a logarithmic number of times.
func (c *Conn) fill(n int) error {
	if c.r == len(c.rbuf) {
		c.r, c.rbuf = 0, c.rbuf[:0]
	}
	for len(c.rbuf)-c.r < n {
		if len(c.rbuf) == cap(c.rbuf) && c.r > 0 {
			c.rbuf = c.rbuf[:copy(c.rbuf, c.rbuf[c.r:])]
			c.r = 0
		}
		if len(c.rbuf) == cap(c.rbuf) {
			c.rbuf = slices.Grow(c.rbuf, max(cap(c.rbuf), minRead))
		}
		k, err := c.raw.Read(c.rbuf[len(c.rbuf):cap(c.rbuf)])
		c.rbuf = c.rbuf[:len(c.rbuf)+k]
		if err != nil && len(c.rbuf)-c.r < n {
			return err
		}
	}
	return nil
}

// readError classifies a stream read failure: a closed stream, mid-frame
// too, is ErrClosed; anything else is counted as a decode error.
func (c *Conn) readError(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	c.m.decodeError()
	return fmt.Errorf("recv: %w", err)
}

// corrupt damages e's payload in place, in a way the receiver's validators
// detect (non-finite values, mismatched arrays, bogus ids) — never in a way
// that breaks the frame, so the connection itself survives. The sending side
// corrupts a decoded copy (see Send): its payload slices may be shared with
// live sketch state.
func corrupt(e *Envelope) {
	switch {
	case e.Hello != nil:
		e.Hello.Seed = ^e.Hello.Seed
	case e.Volume != nil:
		// Mismatch the parallel arrays; the NOC drops such reports.
		if v := e.Volume; len(v.Volumes) > 0 {
			v.Volumes = v.Volumes[:len(v.Volumes)-1]
		}
	case e.Request != nil:
		e.Request.RequestID = ^e.Request.RequestID
	case e.Response != nil:
		switch rep := &e.Response.Report; {
		case len(rep.Sketches) > 0 && len(rep.Sketches[0]) > 0:
			rep.Sketches[0][0] = math.NaN()
		case len(rep.FDRows) > 0 && len(rep.FDRows[0]) > 0:
			rep.FDRows[0][0] = math.NaN()
		case rep.Family == sketch.FamilyFD:
			rep.FDDelta = math.NaN()
		}
	case e.Alarm != nil:
		e.Alarm.Distance = math.NaN()
	}
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
