package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"streampca/internal/mat"
	"streampca/internal/sketch"
	"streampca/internal/vh"
)

// The wire format. A connection opens with the preamble: the magic "SPCA"
// and one version byte. Every Envelope is then one frame:
//
//	kind     1 byte: the payload kind, | traceFlag when a TraceContext rides along
//	length   4 bytes, little-endian: the number of bytes that follow
//	trace    16 bytes when flagged: TraceID and SpanID, little-endian
//	payload  the payload's fields in declaration order
//
// Integers are varints (zigzag when signed), unsigned for IDs, seeds and
// epochs; bools one byte; float64 scalars their 8-byte little-endian bit
// pattern. A string or any other list (ints, culprits, addresses, the rows
// of a [][]float64) is a uvarint count and the elements. A []float64 is one
// run: a uvarint count and, unless it is zero, a form byte and the values:
//
//   - formRaw: each value's 8-byte little-endian bit pattern;
//   - formCompact: gob's float rule, the bit pattern byte-reversed and sent
//     as an unsigned integer, one byte below 0x80, else a count byte (256−k)
//     and k big-endian bytes with the leading zeros dropped: 1–9 B a value;
//   - formInt: each value a zigzag varint, open to a run whose every value
//     is an integer of magnitude below 2⁵³ and none −0. The decoder refuses
//     a varint of 2⁵³ or more in magnitude.
//
// The encoder takes the shortest form for the run, raw on a tie, then int:
// whole-byte volumes, like NetFlow byte counts, are varints (3–4 B a value
// where compact takes about 5), the exact zeros of an aggregator-merged FD
// row one byte each, and large powers of two compact. Every float crosses
// as its exact bit pattern in every form.
//
// A volume report whose flow list is empty reads against the flows of the
// last Hello on its connection, in that order (tier.Downstream.addVolumes);
// the codec sends the list it is given.
//
// A sketch report's columns are a uvarint count k and, when k is 0 (FD),
// the means as a run and the counts as a list; else the row sums R′ (a list
// of rows, each a uvarint l and l varints), the index into them of each
// column's R′ (a list of k ints, −1 where unknown, or none), and the k
// columns, each with its flow's mean and count, which such a report must
// have for every column. A column is a form byte and
//
//   - colRaw: the column as a run, its mean as a float, its count;
//   - colSums: the exact sums the column and its mean are (vh.Centred) over
//     the R′ it names: the count c′ and the volume sum S′, varints, and the l
//     projection sums Z′, each as its residual D_k = Z′_k − round(μ·R′_k)
//     from what the mean predicts: a byte w of 1 to 7 and l two's-complement
//     integers of w little-endian bytes each. The decoder rebuilds μ = S′/c′
//     (0 when c′ = 0), Z′_k = D_k + round(μ·R′_k), rounding half to even,
//     and ẑ_k = (Z′_k − μ·R′_k)/√l. It refuses a column that names no R′,
//     c′ < 0, |R′_k| > c′, R′_k of the other parity than c′, |R′_k| or
//     |S′| ≥ 2⁵³ and |Z′_k| + |μ|·|R′_k| ≥ 2⁵⁰.
//
// The encoder sends a column as sums only when the column rebuilt from them
// has the bits it holds: with ±1 rows and byte counts every pulled column
// does. Anything else goes raw. D_k is √l·ẑ_k to within ½, the window's
// deviation from its mean projected, so w, the fewest bytes that hold a column's every D_k,
// follows the spread of the flow's window, not its volume: about 3 B a sum
// on byte-count traffic, against 4 for Z′ itself (version 5) and 8 raw; a
// spike widens only its own flow's column. Fixed-width integers decode
// several times faster than varints, which saved under 1 %.

const (
	// wireVersion 6: a sums column sends each projection sum as its
	// residual from round(μ·R′_k). Version 5 sent Z′ itself at the byte
	// width of S′, and first sent integer float runs as varints and let a
	// volume report leave its flow list to the Hello; version 4 sent sketch
	// columns as exact integer sums first; version 3 sent them as float
	// runs; version 2 carried the variance-histogram ε in Hello; version 1
	// pulled the full window of Gaussian rows. Mixing versions at one NOC is
	// refused.
	wireVersion = 6
	// frameHeader is the kind byte and the length.
	frameHeader = 5
	// maxFrame caps a frame's declared length; a longer one is ErrBadMessage
	// before anything is read into memory. A randproj response at m = 4096,
	// l = 1024 is 32 MiB with raw columns and under half that as sums; the
	// sums of one frame may decode to at most maxFrame/8 floats, what the
	// largest raw frame holds.
	maxFrame = 1 << 26
	// traceFlag marks a frame whose header carries a TraceContext.
	traceFlag = 0x80
	// sumsBound bounds every |Z′_k| + |μ|·|R′_k| of an integer column: far
	// above any window of byte counts, and 3 bits below 2⁵³, where integers
	// are exact floats, for the rounding of the rebuilt column.
	sumsBound = 1 << 50
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
	formInt
)

// intBound bounds the magnitude of a formInt value: every integer below it
// is an exact float64.
const intBound = 1 << 53

// useAVX2 routes the residuals of appendZ and sumsInto at widths of 1 to 4
// bytes to the amd64 kernels of sums_amd64.s when mat's kernels run theirs;
// only tests clear it, to run the Go loops on the same inputs.
var useAVX2 = mat.UsesAVX2()

// Sketch column forms.
const (
	colRaw byte = iota
	colSums
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
	if e.code(&c); c.err != nil {
		return dst, c.err
	}
	n := len(c.b) - start - frameHeader
	if n > maxFrame {
		return dst, fmt.Errorf("%w: %d-byte frame exceeds the %d-byte cap", ErrBadMessage, n, maxFrame)
	}
	binary.LittleEndian.PutUint32(c.b[start+1:], uint32(n))
	return c.b, nil
}

// decodeFrame decodes the frame at the head of b into e and returns its
// size. A payload of the kind that arrived, and a TraceContext, is decoded
// into the value e already points to, reusing its slices' capacity, or into
// a new one; every other payload pointer is cleared, and the TraceContext's
// when the frame carries none. A frame that is short, declares more
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
		out.Trace = reuse(e.Trace)
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
		c.columns(rep)
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
	// spare is what is left of one array that decoded columns without room
	// of their own are carved from, sized on first need for every float
	// the frame's remaining bytes can hold: a fresh response's columns take
	// one allocation, not one each.
	spare []float64
	// fromSums counts the floats integer columns decoded into, which
	// maxFrame caps.
	fromSums int
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
		c.carve(v, n, len(c.b)/8)
		for i := range *v {
			(*v)[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.b[8*i:]))
		}
		c.b = c.b[8*n:]
	case form == formCompact && n <= len(c.b):
		setLen(v, n)
		for i := range *v {
			(*v)[i] = c.compact()
		}
	case form == formInt && n <= len(c.b):
		setLen(v, n)
		for i := range *v {
			x, k := binary.Varint(c.b)
			if k <= 0 || x <= -intBound || x >= intBound {
				c.fail("float run value %d of %d: bad or out-of-range varint", i, n)
				return
			}
			(*v)[i], c.b = float64(x), c.b[k:]
		}
	default:
		c.fail("float run of %d values in form %d, %d bytes left", n, form, len(c.b))
	}
}

// carve gives *v length n in its own capacity or, lacking it, in the
// spare, which is sized for need floats when it runs short.
func (c *codec) carve(v *[]float64, n, need int) {
	if cap(*v) >= n {
		*v = (*v)[:n]
		return
	}
	if len(c.spare) < n {
		c.spare = make([]float64, max(n, need))
	}
	*v, c.spare = c.spare[:n:n], c.spare[n:]
}

// appendRun appends the form byte and the values of a non-empty run, in
// the shortest form (see the format comment).
func appendRun(dst []byte, xs []float64) []byte {
	compact, ints := 0, 0 // ints is −1 once a value has no formInt
	for _, x := range xs {
		if u := compactBits(x); u < 0x80 {
			compact++
		} else {
			compact += 1 + (bits.Len64(u)+7)/8
		}
		if v := int64(x); ints >= 0 && float64(v) == x && v > -intBound && v < intBound && (v != 0 || !math.Signbit(x)) {
			ints += (bits.Len64(uint64(v<<1^v>>63)|1) + 6) / 7
		} else {
			ints = -1
		}
	}
	form, size := formRaw, 8*len(xs)
	if ints >= 0 && ints < size {
		form, size = formInt, ints
	}
	if compact < size {
		form = formCompact
	}
	dst = append(dst, form)
	switch form {
	case formRaw:
		for _, x := range xs {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	case formInt:
		for _, x := range xs {
			dst = binary.AppendVarint(dst, int64(x))
		}
	default:
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

// columns codes a sketch report's columns, means, counts and row sums (see
// the format comment). Decoding keeps the capacity of rep's arrays.
func (c *codec) columns(rep *sketch.Snapshot) {
	k := c.count(len(rep.Sketches), 1)
	if k == 0 {
		c.floats(&rep.Means)
		list(c, &rep.Counts, 1)
		for i := range rep.Counts {
			c.varint(&rep.Counts[i])
		}
		if !c.enc {
			setLen(&rep.Sketches, 0)
			setLen(&rep.RowSums, 0)
			setLen(&rep.RowSumOf, 0)
		}
		return
	}
	if !c.enc {
		setLen(&rep.Sketches, k)
		setLen(&rep.Means, k)
		setLen(&rep.Counts, k)
	} else if len(rep.Means) != k || len(rep.Counts) != k {
		c.fail("%d sketch columns with %d means and %d counts", k, len(rep.Means), len(rep.Counts))
		return
	}
	c.rowSums(&rep.RowSums)
	c.ints(&rep.RowSumOf)
	if n := len(rep.RowSumOf); n != 0 && n != k {
		c.fail("%d row-sum indices for %d columns", n, k)
	}
	for i, j := range rep.RowSumOf {
		if j < -1 || j >= len(rep.RowSums) {
			c.fail("column %d names row sums %d of %d", i, j, len(rep.RowSums))
		}
	}
	if c.err != nil {
		return
	}
	fit := rowFit{row: -1}
	for i := range k {
		if c.enc {
			c.appendColumn(rep, i, &fit)
		} else {
			c.column(rep, i, &fit)
		}
	}
}

// rowSums codes the row sums R′: a list of rows, each a list of varints.
func (c *codec) rowSums(v *[][]float64) {
	list(c, v, 1)
	for j := range *v {
		rs := &(*v)[j]
		n := c.count(len(*rs), 1)
		if !c.enc {
			if c.fromSums += n; c.fromSums > maxFrame/8 {
				c.fail("row sums of %d values", n)
				return
			}
			setLen(rs, n)
		}
		for k := range *rs {
			r := int64((*rs)[k])
			if c.enc && float64(r) != (*rs)[k] {
				c.fail("row sum %v is not an integer", (*rs)[k])
			}
			if c.varint(&r); !c.enc {
				(*rs)[k] = float64(r)
			}
			if r <= -1<<53 || r >= 1<<53 {
				c.fail("row sum %d out of range", r)
			}
		}
	}
}

// rowFit caches the last row sums found to be those of count ±1 rows, by
// their index, with their largest |R′_k| (row −1: none yet).
type rowFit struct {
	row   int
	count int64
	max   float64
}

// check reports whether rs, rep.RowSums[row], are the row sums of count ±1
// rows: integers of count's parity with |R′_k| ≤ count.
func (f *rowFit) check(rs []float64, row int, count int64) bool {
	if row == f.row && count == f.count {
		return true
	}
	f.row = -1
	top := 0.0 // kept out of f, whose store each element would wait on
	for _, r := range rs {
		a := math.Abs(r)
		if !(a <= float64(count)) || (int64(r)-count)&1 != 0 {
			return false
		}
		if a > top {
			top = a
		}
	}
	f.row, f.count, f.max = row, count, top
	return true
}

// appendColumn appends column i of rep: as sums when they rebuild its bits,
// else raw.
func (c *codec) appendColumn(rep *sketch.Snapshot, i int, fit *rowFit) {
	mark := len(c.b)
	if rs := rep.RowSum(i); rs != nil && c.appendSums(rep, i, rs, fit) {
		return
	}
	c.b = append(c.b[:mark], colRaw)
	c.floats(&rep.Sketches[i])
	c.float(&rep.Means[i])
	c.varint(&rep.Counts[i])
}

// appendSums appends column i of rep, ẑ with mean μ over c′ windowed
// elements and the row sums rs, as colSums, recovering S′ = round(μ·c′)
// and Z′ (appendZ). It reports false, having appended an unspecified tail,
// when the sums are out of range or do not rebuild the column's and the
// mean's exact bits. It keeps |μ|·|R′_k| < 2⁴⁹, inside the decoder's range
// with room for the rounding of Z′_k + μ·R′_k.
func (c *codec) appendSums(rep *sketch.Snapshot, i int, rs []float64, fit *rowFit) bool {
	z, mean, count := rep.Sketches[i], rep.Means[i], rep.Counts[i]
	sum := math.Round(mean * float64(count))
	if len(rs) != len(z) || count < 0 || !(math.Abs(sum) < 1<<47) ||
		math.Float64bits(vh.Mean(sum, count)) != math.Float64bits(mean) ||
		!fit.check(rs, rep.RowSumOf[i], count) || !(math.Abs(mean)*fit.max < 1<<49) {
		return false
	}
	c.b = binary.AppendVarint(binary.AppendVarint(append(c.b, colSums), count), int64(sum))
	var ok bool
	c.b, ok = appendZ(c.b, z, rs, mean)
	return ok
}

// appendZ appends the column z as the width byte w and l two's-complement
// integers of w little-endian bytes each, the residuals D_k (residuals), or
// reports false when a ẑ_k does not rebuild or a D_k is outside
// [−2⁴⁸, 2⁴⁸). w is the fewest bytes that hold every D_k. The residuals are
// written where the packed ones go, 4 bytes each, which hold them all when
// w ≤ 4, else 8, then packed in place. A b too short for that doubles, so a
// message that grows a few bytes at a time rarely reallocates it.
func appendZ(b []byte, z, rs []float64, mean float64) ([]byte, bool) {
	if need := 1 + 8*len(z); cap(b)-len(b) < need {
		b = slices.Grow(b, max(need, len(b)))
	}
	b = append(b, 0)
	start := len(b)
	out := b[start : start+8*len(z)]
	acc, ok := residuals(out, z, rs[:len(z)], mean, 4)
	if !ok || acc >= 1<<49 {
		return b, false
	}
	w := (max(bits.Len64(acc), 1) + 7) / 8
	if w > 4 {
		residuals(out, z, rs[:len(z)], mean, 8)
	}
	pack(out, len(z), w)
	b[start-1] = byte(w)
	return b[:start+w*len(z)], true
}

// residuals writes D_k = Z′_k − round(p_k), where p_k = μ·R′_k and Z′_k =
// round(ẑ_k·√l + p_k), into out as little-endian integers every stride
// bytes, 4 (their low bytes) or 8, and returns the OR of every
// D_k ^ D_k<<1, which has a bit set at or above bit s exactly when some D_k
// needs more than s bits: its bit length is the width in bits that holds
// them all (0 when all are 0). It reports false when a
// vh.Centred(Z′_k, R′_k, μ) is not ẑ_k's bits. out must hold 8 bytes from
// the last integer's slot.
//
// |p_k| ≤ |S′| < 2⁴⁷ (appendSums), and D_k is the bits of M + Z′_k less
// those of M + round(p_k), M = 1.5·2⁵². Where |Z′_k| < 2⁵¹ that is the
// integer; past it, or for a NaN, |D_k| > 2⁴⁸, which appendZ refuses. So
// every D_k sent rebuilds Z′_k = D_k + round(p_k), |Z′_k| < 2⁴⁹.
func residuals(out []byte, z, rs []float64, mean float64, stride int) (uint64, bool) {
	root, scale := math.Sqrt(float64(len(z))), vh.Scale(len(z))
	var acc uint64
	k0 := 0
	if useAVX2 && stride == 4 {
		k0 = len(z) &^ 3
		var ok bool
		if acc, ok = residualsAVX2(out[:4*k0], z[:k0], rs[:k0], mean, root, scale); !ok {
			return 0, false
		}
	}
	for k := k0; k < len(z); k++ {
		// The last is vh.Centred(zk, R′_k, μ) with its product p reused.
		v, p := z[k], float64(mean*rs[k])
		x := float64(v*root) + p + 0x1.8p52
		zk := x - 0x1.8p52
		if math.Float64bits(scale*(zk-p)) != math.Float64bits(v) {
			return 0, false
		}
		d := int64(math.Float64bits(x)) - int64(math.Float64bits(p+0x1.8p52))
		acc |= uint64(d ^ d<<1)
		binary.LittleEndian.PutUint64(out[stride*k:], uint64(d))
	}
	return acc, true
}

// pack moves the n integers at the head of b, residuals' 4-byte slots for
// w ≤ 4 and 8-byte ones past it, to w bytes each, in place. Each store
// ends where the next integer is still to be read.
func pack(b []byte, n, w int) {
	switch {
	case w > 4:
		for k := range n {
			binary.LittleEndian.PutUint64(b[w*k:], binary.LittleEndian.Uint64(b[8*k:]))
		}
	case w < 4:
		k0 := 0
		if useAVX2 {
			k0 = n &^ 3
			packAVX2(b, k0, w)
		}
		for k := k0; k < n; k++ {
			binary.LittleEndian.PutUint32(b[w*k:], binary.LittleEndian.Uint32(b[4*k:]))
		}
	}
}

// sumsInto rebuilds the column z from the width byte w and the l residuals
// D_k of w bytes at the head of b, Z′_k = D_k + round(μ·R′_k) and z_k =
// vh.Centred(Z′_k, R′_k, μ), and returns the rest of b, or false when b is
// short, w is not 1 to 7 or a Z′_k is out of range. maxR is max|R′_k|. Each
// D_k is loaded as 8 bytes: a response has at least 8 after its columns, so
// b must too.
func sumsInto(z []float64, b []byte, rs []float64, mean, maxR float64) ([]byte, bool) {
	if len(b) < 1 || b[0] < 1 || b[0] > 7 || len(b)-1 < int(b[0])*len(z)+8 {
		return b, false
	}
	w, scale := int(b[0]), vh.Scale(len(z))
	b, rs = b[1:], rs[:len(z)]
	sh := uint(64 - 8*w)
	// Six bytes hold |D_k| ≤ 2⁴⁷, and with |μ|·max|R′| < 2⁴⁸ every such
	// Z′_k is in range without the sum. Past 2⁵⁰ the rounding of p is not
	// exact, and the sum refuses it.
	if w > 6 || !(math.Abs(mean)*maxR < 1<<48) {
		for k := range z {
			p := float64(mean * rs[k])
			zk := float64(int64(binary.LittleEndian.Uint64(b[w*k:])<<sh)>>sh) + (p + 0x1.8p52 - 0x1.8p52)
			if !(math.Abs(zk)+math.Abs(p) < sumsBound) {
				return b, false
			}
		}
	}
	k0 := 0
	if w <= 4 && useAVX2 {
		k0 = len(z) &^ 3
		sumsIntoAVX2(z[:k0], b, rs[:k0], mean, scale, w)
	}
	for k := k0; k < len(z); k++ {
		p := float64(mean * rs[k])
		zk := float64(int64(binary.LittleEndian.Uint64(b[w*k:])<<sh)>>sh) + (p + 0x1.8p52 - 0x1.8p52)
		z[k] = scale * (zk - p)
	}
	return b[w*len(z):], true
}

// column decodes column i of rep's columns into rep.
func (c *codec) column(rep *sketch.Snapshot, i int, fit *rowFit) {
	if len(c.b) < 1 {
		c.fail("truncated column")
		return
	}
	form := c.b[0]
	c.b = c.b[1:]
	switch form {
	case colRaw:
		c.floats(&rep.Sketches[i])
		c.float(&rep.Means[i])
		c.varint(&rep.Counts[i])
		return
	case colSums:
	default:
		c.fail("column form %d", form)
		return
	}
	rs := rep.RowSum(i)
	if rs == nil {
		c.fail("column %d sent as sums names no row sums", i)
		return
	}
	var count, sum int64
	c.varint(&count)
	c.varint(&sum)
	if count < 0 || !(math.Abs(float64(sum)) < 1<<53) || !fit.check(rs, rep.RowSumOf[i], count) {
		c.fail("column %d: count %d, sum %d or row sums out of range", i, count, sum)
		return
	}
	l := len(rs)
	if c.fromSums += l; l > len(c.b) || c.fromSums > maxFrame/8 {
		c.fail("column %d of %d values, %d bytes left", i, l, len(c.b))
		return
	}
	mean := vh.Mean(float64(sum), count)
	z := &rep.Sketches[i]
	c.carve(z, l, min((len(rep.Sketches)-i)*l, len(c.b), maxFrame/8-c.fromSums+l))
	var ok bool
	if c.b, ok = sumsInto(*z, c.b, rs, mean, fit.max); !ok {
		c.fail("column %d: a projection sum unread or out of range", i)
		return
	}
	rep.Means[i], rep.Counts[i] = mean, count
}
