package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The wire format. A connection opens with the preamble: the magic "SPCA"
// and one version byte. Every Envelope is then one frame:
//
//	kind     1 byte: the payload kind, | traceFlag when a TraceContext rides along
//	length   4 bytes, little-endian: the number of bytes that follow
//	trace    16 bytes when flagged: TraceID and SpanID, little-endian
//	payload  the payload's fields in declaration order
//
// Integers are varints, unsigned for IDs, seeds and epochs; bools one byte;
// float64 scalars their 8-byte little-endian bit pattern. A string or any
// other list (ints, culprits, addresses, the rows of a [][]float64) is a
// uvarint count and the elements. A []float64 is one run: a uvarint count
// and, unless it is zero, a form byte and the values:
//
//   - formRaw: each value's 8-byte little-endian bit pattern;
//   - formCompact: gob's float rule, the bit pattern byte-reversed and sent
//     as an unsigned integer, one byte below 0x80, else a count byte (256−k)
//     and k big-endian bytes with the leading zeros dropped: 1–9 B a value.
//
// The encoder takes whichever form is shorter for the run: integer-valued
// floats, like NetFlow byte counts, are a few bytes compact, and the exact
// zeros of an aggregator-merged FD row one each; sketch columns are raw.
// Every float crosses as its exact bit pattern either way.

const (
	// wireVersion 3: Hello carries no variance-histogram ε. Version 2 added
	// it; version 1 pulled the full window of Gaussian rows. Mixing versions
	// at one NOC is refused.
	wireVersion = 3
	// frameHeader is the kind byte and the length.
	frameHeader = 5
	// maxFrame caps a frame's declared length; a longer one is ErrBadMessage
	// before anything is read into memory. A randproj response at m = 4096,
	// l = 1024 is 32 MiB.
	maxFrame = 1 << 26
	// traceFlag marks a frame whose header carries a TraceContext.
	traceFlag = 0x80
)

var preamble = [...]byte{'S', 'P', 'C', 'A', wireVersion}

// Payload kinds.
const (
	kindHello byte = 1 + iota
	kindVolume
	kindRequest
	kindResponse
	kindAlarm
	kindError
	kindShards
)

// Float run forms.
const (
	formRaw byte = iota
	formCompact
)

// checkPreamble reports whether b, the first len(preamble) bytes a peer sent,
// open this protocol at this version.
func checkPreamble(b []byte) error {
	if string(b[:4]) != string(preamble[:4]) {
		return fmt.Errorf("%w: the peer's stream opens with %x, not this protocol (a gob peer, or none)", ErrVersion, b)
	}
	if b[4] != wireVersion {
		return fmt.Errorf("%w: the peer speaks version %d, this build %d", ErrVersion, b[4], wireVersion)
	}
	return nil
}

// appendFrame appends e's frame to dst. e must hold exactly one payload.
func appendFrame(dst []byte, e *Envelope) ([]byte, error) {
	start := len(dst)
	kind := e.kind()
	if e.Trace != nil {
		kind |= traceFlag
	}
	c := codec{enc: true, b: append(dst, kind, 0, 0, 0, 0)}
	if e.Trace != nil {
		c.trace(e.Trace)
	}
	e.code(&c)
	n := len(c.b) - start - frameHeader
	if n > maxFrame {
		return dst, fmt.Errorf("%w: %d-byte frame exceeds the %d-byte cap", ErrBadMessage, n, maxFrame)
	}
	binary.LittleEndian.PutUint32(c.b[start+1:], uint32(n))
	return c.b, nil
}

// decodeFrame decodes the frame at the head of b into e and returns its
// size. A payload of the kind that arrived is decoded into the value e
// already points to, reusing its slices' capacity, or into a new one; every
// other payload pointer is cleared. A frame that is short, declares more
// than maxFrame or than b holds, names no known kind, or does not end where
// its payload does is ErrBadMessage, and every count is checked against the
// bytes left before anything is allocated for it.
func decodeFrame(b []byte, e *Envelope) (int, error) {
	if len(b) < frameHeader {
		return 0, fmt.Errorf("%w: %d-byte frame header", ErrBadMessage, len(b))
	}
	kind, n := b[0], binary.LittleEndian.Uint32(b[1:])
	if n > maxFrame || uint64(n) > uint64(len(b)-frameHeader) {
		return 0, fmt.Errorf("%w: frame declares %d bytes, %d follow (cap %d)", ErrBadMessage, n, len(b)-frameHeader, maxFrame)
	}
	c := codec{b: b[frameHeader : frameHeader+int(n)]}
	var out Envelope
	if kind&traceFlag != 0 {
		out.Trace = new(TraceContext)
		c.trace(out.Trace)
	}
	switch kind &^ traceFlag {
	case kindHello:
		out.Hello = reuse(e.Hello)
	case kindVolume:
		out.Volume = reuse(e.Volume)
	case kindRequest:
		out.Request = reuse(e.Request)
	case kindResponse:
		out.Response = reuse(e.Response)
	case kindAlarm:
		out.Alarm = reuse(e.Alarm)
	case kindError:
		out.Error = reuse(e.Error)
	case kindShards:
		out.Shards = reuse(e.Shards)
	default:
		return 0, fmt.Errorf("%w: unknown frame kind %#x", ErrBadMessage, kind)
	}
	out.code(&c)
	if c.err == nil && len(c.b) > 0 {
		c.fail("%d bytes after the payload", len(c.b))
	}
	if c.err != nil {
		return 0, c.err
	}
	*e = out
	return frameHeader + int(n), nil
}

// kind names e's payload.
func (e *Envelope) kind() byte {
	switch {
	case e.Hello != nil:
		return kindHello
	case e.Volume != nil:
		return kindVolume
	case e.Request != nil:
		return kindRequest
	case e.Response != nil:
		return kindResponse
	case e.Alarm != nil:
		return kindAlarm
	case e.Error != nil:
		return kindError
	case e.Shards != nil:
		return kindShards
	}
	return 0
}

// code encodes or decodes e's payload: the one description of every
// payload's wire form, field by field.
func (e *Envelope) code(c *codec) {
	switch e.kind() {
	case kindHello:
		h := e.Hello
		c.str(&h.MonitorID)
		c.ints(&h.FlowIDs)
		c.int(&h.SketchLen)
		c.int(&h.WindowLen)
		c.uvarint(&h.Seed)
		c.int((*int)(&h.Family))
		c.int((*int)(&h.Role))
		c.int(&h.NumFlows)
	case kindVolume:
		v := e.Volume
		c.str(&v.MonitorID)
		c.varint(&v.Interval)
		c.ints(&v.FlowIDs)
		c.floats(&v.Volumes)
	case kindRequest:
		c.uvarint(&e.Request.RequestID)
	case kindResponse:
		r := e.Response
		c.uvarint(&r.RequestID)
		c.str(&r.MonitorID)
		c.bool(&r.Degraded)
		c.int(&r.StaleFlows)
		rep := &r.Report
		c.varint(&rep.Interval)
		c.ints(&rep.FlowIDs)
		c.rows(&rep.Sketches)
		c.floats(&rep.Means)
		list(c, &rep.Counts, 1)
		for i := range rep.Counts {
			c.varint(&rep.Counts[i])
		}
		c.int((*int)(&rep.Family))
		c.rows(&rep.FDRows)
		c.float(&rep.FDDelta)
		c.int(&rep.FDEll)
	case kindAlarm:
		a := e.Alarm
		c.varint(&a.Interval)
		c.float(&a.Distance)
		c.float(&a.Threshold)
		c.bool(&a.Degraded)
		list(c, &a.Identified, 1+2*8)
		for i := range a.Identified {
			f := &a.Identified[i]
			c.int(&f.Flow)
			c.float(&f.Amount)
			c.float(&f.Confidence)
		}
	case kindError:
		c.str(&e.Error.Msg)
		c.int((*int)(&e.Error.Kind))
	case kindShards:
		s := e.Shards
		list(c, &s.Aggregators, 1)
		for i := range s.Aggregators {
			c.str(&s.Aggregators[i])
		}
		c.uvarint(&s.Epoch)
	}
}

// reuse returns p, or a new value when p is nil.
func reuse[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}

// setLen gives *v length n, reusing its capacity. (Reslicing *v in place,
// rather than assigning a resized copy, keeps encoding from leaking the
// sender's arrays to the heap.)
func setLen[T any](v *[]T, n int) {
	if cap(*v) < n {
		*v = make([]T, n)
	} else {
		*v = (*v)[:n]
	}
}

// list codes the length of *v, elements of at least size bytes each;
// decoding resizes *v to it.
func list[T any](c *codec, v *[]T, size int) {
	if n := c.count(len(*v), size); !c.enc {
		setLen(v, n)
	}
}

// codec moves one frame's fields: encoding appends each to b, decoding
// reads each from b into the value pointed to. The first decoding failure
// sticks: it empties b, so every later read yields zero without allocating.
type codec struct {
	enc bool
	b   []byte
	err error
	// spare is what is left of one array that decoded raw runs without
	// room of their own are carved from, sized on first need for every
	// float the frame's remaining bytes can hold: a fresh response's
	// columns take one allocation, not one each.
	spare []float64
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: "+format, append([]any{ErrBadMessage}, args...)...)
	}
	c.b = nil
}

func (c *codec) trace(tc *TraceContext) {
	c.fixed64(&tc.TraceID)
	c.fixed64(&tc.SpanID)
}

// fixed64 codes 8 little-endian bytes.
func (c *codec) fixed64(v *uint64) {
	switch {
	case c.enc:
		c.b = binary.LittleEndian.AppendUint64(c.b, *v)
	case len(c.b) < 8:
		c.fail("truncated 8-byte field")
	default:
		*v, c.b = binary.LittleEndian.Uint64(c.b), c.b[8:]
	}
}

func (c *codec) uvarint(v *uint64) {
	if c.enc {
		c.b = binary.AppendUvarint(c.b, *v)
		return
	}
	x, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail("bad uvarint")
		return
	}
	*v, c.b = x, c.b[n:]
}

func (c *codec) varint(v *int64) {
	if c.enc {
		c.b = binary.AppendVarint(c.b, *v)
		return
	}
	x, n := binary.Varint(c.b)
	if n <= 0 {
		c.fail("bad varint")
		return
	}
	*v, c.b = x, c.b[n:]
}

func (c *codec) int(v *int) {
	x := int64(*v)
	if c.varint(&x); !c.enc {
		*v = int(x)
	}
}

func (c *codec) bool(v *bool) {
	switch {
	case c.enc && *v:
		c.b = append(c.b, 1)
	case c.enc:
		c.b = append(c.b, 0)
	case len(c.b) < 1 || c.b[0] > 1:
		c.fail("bad bool")
	default:
		*v, c.b = c.b[0] == 1, c.b[1:]
	}
}

func (c *codec) float(v *float64) {
	x := math.Float64bits(*v)
	if c.fixed64(&x); !c.enc {
		*v = math.Float64frombits(x)
	}
}

// count codes an element count: encoding writes n; decoding reads a count
// and checks that the bytes left can hold that many elements of at least
// size bytes each.
func (c *codec) count(n, size int) int {
	x := uint64(n)
	c.uvarint(&x)
	if !c.enc && x > uint64(len(c.b)/size) {
		c.fail("count %d exceeds the %d bytes left", x, len(c.b))
		return 0
	}
	return int(x)
}

// str codes a string. Decoding keeps the string in place when the bytes
// spell it, so a reused payload's ID costs no allocation.
func (c *codec) str(v *string) {
	n := c.count(len(*v), 1)
	if c.enc {
		c.b = append(c.b, *v...)
		return
	}
	if s := c.b[:n]; string(s) != *v {
		*v = string(s)
	}
	c.b = c.b[n:]
}

func (c *codec) ints(v *[]int) {
	list(c, v, 1)
	for i := range *v {
		c.int(&(*v)[i])
	}
}

// compactBits is v's bit pattern in the order formCompact sends it: gob's,
// byte-reversed, so the exponent and the high mantissa bytes come last and
// the zero low bytes of an integer-valued float lead.
func compactBits(v float64) uint64 { return bits.ReverseBytes64(math.Float64bits(v)) }

// floats codes one run, in whichever form is shorter, decoding into v's
// capacity.
func (c *codec) floats(v *[]float64) {
	n := c.count(len(*v), 1)
	switch {
	case c.enc && n > 0:
		c.b = appendRun(c.b, *v)
		return
	case c.enc:
		return
	case n == 0:
		*v = (*v)[:0]
		return
	}
	form := c.b[0]
	c.b = c.b[1:]
	switch {
	case form == formRaw && n <= len(c.b)/8:
		if cap(*v) >= n {
			*v = (*v)[:n]
		} else {
			if len(c.spare) < n {
				c.spare = make([]float64, len(c.b)/8)
			}
			*v, c.spare = c.spare[:n:n], c.spare[n:]
		}
		for i := range *v {
			(*v)[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.b[8*i:]))
		}
		c.b = c.b[8*n:]
	case form == formCompact && n <= len(c.b):
		setLen(v, n)
		for i := range *v {
			(*v)[i] = c.compact()
		}
	default:
		c.fail("float run of %d values in form %d, %d bytes left", n, form, len(c.b))
	}
}

// appendRun appends the form byte and the values of a non-empty run.
func appendRun(dst []byte, xs []float64) []byte {
	compact := 0
	for _, x := range xs {
		if u := compactBits(x); u < 0x80 {
			compact++
		} else {
			compact += 1 + (bits.Len64(u)+7)/8
		}
	}
	if compact >= 8*len(xs) {
		dst = append(dst, formRaw)
		for _, x := range xs {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
		return dst
	}
	dst = append(dst, formCompact)
	for _, x := range xs {
		u := compactBits(x)
		if u < 0x80 {
			dst = append(dst, byte(u))
			continue
		}
		k := (bits.Len64(u) + 7) / 8
		dst = append(dst, byte(256-k))
		for s := 8 * (k - 1); s >= 0; s -= 8 {
			dst = append(dst, byte(u>>s))
		}
	}
	return dst
}

// compact reads one formCompact value.
func (c *codec) compact() float64 {
	if len(c.b) < 1 {
		c.fail("truncated float run")
		return 0
	}
	u := uint64(c.b[0])
	if u >= 0x80 {
		k := 256 - int(u)
		if k > 8 || k >= len(c.b) {
			c.fail("bad compact float length %d", k)
			return 0
		}
		u = 0
		for _, x := range c.b[1 : 1+k] {
			u = u<<8 | uint64(x)
		}
		c.b = c.b[k:]
	}
	c.b = c.b[1:]
	return math.Float64frombits(bits.ReverseBytes64(u))
}

// rows codes a row count and each row as a run, decoding into v's rows.
func (c *codec) rows(v *[][]float64) {
	list(c, v, 1)
	for i := range *v {
		c.floats(&(*v)[i])
	}
}
