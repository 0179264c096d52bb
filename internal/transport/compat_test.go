package transport

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"

	"streampca/internal/core"
	"streampca/internal/obs"
	"streampca/internal/sketch"
	"streampca/internal/vh"
)

// goldenFrames pins the wire format byte for byte: one frame per message
// kind and every float form. The hex is spaced by field, in the order
// wire.go documents: kind, length, [trace,] payload. A change here is a
// change of the protocol and needs a new wireVersion.
var goldenFrames = []struct {
	name string
	env  Envelope
	hex  string
}{
	{"hello", Envelope{Hello: &Hello{MonitorID: "m1", FlowIDs: []int{0, 5}, SketchLen: 8, WindowLen: 16,
		Seed: 7, Role: RoleAggregator, NumFlows: 81}},
		"01 0d000000 | 02 6d31 | 02 00 0a | 10 20 07 00 02 a201"},
	// Integer-valued volumes take the int form: 1500 is the zigzag varint
	// of 3000, 2 bytes, and 0 one.
	{"volume/ints", Envelope{Volume: &VolumeReport{MonitorID: "m1", Interval: 9,
		FlowIDs: []int{0, 1}, Volumes: []float64{1500, 0}}},
		"02 0c000000 | 02 6d31 | 12 | 02 00 02 | 02 02 b817 00"},
	// An empty flow list leaves the flows to the connection's last Hello.
	{"volume/implicit", Envelope{Volume: &VolumeReport{MonitorID: "m1", Interval: 9,
		Volumes: []float64{1500, 0}}},
		"02 0a000000 | 02 6d31 | 12 | 00 | 02 02 b817 00"},
	// A non-integral run that compact shortens: 0.5 is 3 bytes, 0 one.
	{"volume/compact", Envelope{Volume: &VolumeReport{MonitorID: "m1", Interval: 9,
		FlowIDs: []int{0, 1}, Volumes: []float64{0.5, 0}}},
		"02 0d000000 | 02 6d31 | 12 | 02 00 02 | 02 01 fee03f 00"},
	{"volume/raw", Envelope{Volume: &VolumeReport{MonitorID: "m1", Interval: 9,
		FlowIDs: []int{0, 1}, Volumes: []float64{0.1, -2.5e-3}}},
		"02 19000000 | 02 6d31 | 12 | 02 00 02 | 02 00 9a9999999999b93f 7b14ae47e17a64bf"},
	{"request/traced", Envelope{Request: &SketchRequest{RequestID: 42},
		Trace: &TraceContext{TraceID: 0xdeadbeef, SpanID: 7}},
		"83 11000000 | efbeadde00000000 0700000000000000 | 2a"},
	// Columns without row sums are raw: a run, the mean, the count.
	{"response/randproj", Envelope{Response: &SketchResponse{RequestID: 3, MonitorID: "m1",
		Report: core.SketchReport{Interval: 4, FlowIDs: []int{0, 1},
			Sketches: [][]float64{{0.1, 0.2}, {0.3, 0.4}}, Means: []float64{5, 6}, Counts: []int64{4, 4}}}},
		"04 51000000 | 03 02 6d31 00 00 | 08 02 00 02 | 02 | 00 | 00 | 00" +
			" | 00 02 00 9a9999999999b93f 9a9999999999c93f 0000000000001440 08" +
			" | 00 02 00 333333333333d33f 9a9999999999d93f 0000000000001840 08 | 00 | 00 | 0000000000000000 | 00"},
	// Columns that are exact sums go as them: both over the one R′ = (2, −2),
	// sent first, with c′ = 4, the first with S′ = 10 and Z′ = (13, −3), the
	// second with S′ = 6 and Z′ = (7, 1). R′, its indices, c′ and S′ are
	// zigzag varints; each Z′_k goes as its residual from round(μ·R′_k),
	// (13 − 5, −3 + 5) = (8, 2) at μ = 2.5 and (7 − 3, 1 + 3) = (4, 4) at
	// μ = 1.5, two's-complement integers of the byte width that leads them.
	{"response/sums", Envelope{Response: &SketchResponse{RequestID: 3, MonitorID: "m1",
		Report: sumsReport(4, []float64{2, -2}, []int64{10, 6}, [][]float64{{13, -3}, {7, 1}})}},
		"04 2a000000 | 03 02 6d31 00 00 | 0a 02 00 02 | 02 | 01 02 04 03 | 02 00 00 | 00" +
			" | 01 08 14 01 08 02 | 01 08 0c 01 04 04 | 00 | 00 | 0000000000000000 | 00"},
	// A request since interval 300 (zigzag 600) asks for deltas against it.
	{"request/since", Envelope{Request: &SketchRequest{RequestID: 42, Since: 300}},
		"03 03000000 | 2a | d804"},
	// Delta columns against the report at interval 7: one delta, times 7
	// and 8 entered and 2 left, as zigzag varints t − 7, and each flow's
	// volumes at them.
	{"response/delta", Envelope{Response: &SketchResponse{RequestID: 3, MonitorID: "m1",
		Report: core.SketchReport{Interval: 9, FlowIDs: []int{0, 1}, Since: 7,
			Deltas: []sketch.Delta{{Entered: []int64{7, 8}, Left: []int64{2}}}, DeltaOf: []int{0, 0},
			Sketches: [][]float64{{1500, 0, 3}, {4, 5, 6}}, Means: []float64{0, 0}, Counts: []int64{0, 0}}}},
		"04 2a000000 | 03 02 6d31 00 00 | 12 02 00 02 | 02 | 00 | 00 | 01 0e 02 00 02 01 09" +
			" | 02 00 b817 00 06 | 02 00 08 0a 0c | 00 | 00 | 0000000000000000 | 00"},
	// FD rows with exact zeros are one byte a zero: an integral row and the
	// means as varints, the other row compact.
	{"response/fd", Envelope{Response: &SketchResponse{RequestID: 3, MonitorID: "agg", Degraded: true, StaleFlows: 1,
		Report: core.SketchReport{Interval: 9, FlowIDs: []int{2, 5}, Means: []float64{10, 20}, Counts: []int64{9, 9},
			Family: sketch.FamilyFD, FDRows: [][]float64{{1, 0}, {0, 0.5}}, FDDelta: 0.25, FDEll: 2}}},
		"04 28000000 | 03 03616767 01 02 | 12 02 04 0a | 00 | 02 02 14 28 | 02 12 12 | 02" +
			" | 02 | 02 02 02 00 | 02 01 00 fee03f | 000000000000d03f | 04"},
	{"alarm", Envelope{Alarm: &Alarm{Interval: 12, Distance: 9.5, Threshold: 2.25, Degraded: true,
		Identified: []IdentifiedFlow{{Flow: 41, Amount: 5e5, Confidence: 0.93}}}},
		"05 24000000 | 18 0000000000002340 0000000000000240 01 | 01 52 0000000080841e41 c3f5285c8fc2ed3f"},
	{"error", Envelope{Error: &ProtocolError{Msg: "refused", Kind: ErrorVersion}},
		"06 09000000 | 07 72656675736564 | 04"},
	{"shard_map", Envelope{Shards: &ShardMap{Aggregators: []string{"a:1", "b:2"}, Epoch: 5}},
		"07 0a000000 | 02 03 613a31 03 623a32 | 05"},
}

// sumsReport is a randproj report whose columns are the exact sums given:
// flow i has count c′, volume sum sums[i], projection sums z[i] and the
// flows' shared row sums r.
func sumsReport(count int64, r []float64, sums []int64, z [][]float64) core.SketchReport {
	rep := core.SketchReport{Interval: count + 1, RowSums: [][]float64{r}}
	for i, s := range sums {
		mean := vh.Mean(float64(s), count)
		col := make([]float64, len(r))
		for k := range col {
			col[k] = vh.Centred(z[i][k], r[k], mean, vh.Scale(len(r)))
		}
		rep.FlowIDs = append(rep.FlowIDs, i)
		rep.Sketches = append(rep.Sketches, col)
		rep.Means = append(rep.Means, mean)
		rep.Counts = append(rep.Counts, count)
		rep.RowSumOf = append(rep.RowSumOf, 0)
	}
	return rep
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.NewReplacer(" ", "", "|", "").Replace(s))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenFrames: every message kind encodes to its golden frame, and the
// golden frame decodes back to an envelope that encodes to it again.
func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames {
		t.Run(g.name, func(t *testing.T) {
			want := unhex(t, g.hex)
			got, err := appendFrame(nil, nil, &g.env)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame\n got  %x\n want %x", got, want)
			}
			var back Envelope
			n, err := decodeFrame(want, &back)
			if err != nil || n != len(want) {
				t.Fatalf("decode: %d of %d bytes, %v", n, len(want), err)
			}
			if again, _ := appendFrame(nil, nil, &back); !bytes.Equal(again, want) {
				t.Fatalf("re-encoded\n got  %x\n want %x", again, want)
			}
		})
	}
}

// TestConnOpensWithPreamble: the first Send writes the magic and version
// ahead of its frame, later Sends only their frames.
func TestConnOpensWithPreamble(t *testing.T) {
	s := &splitStream{}
	c := NewConnWithMetrics(s, nil)
	for i := 0; i < 2; i++ {
		if err := c.Send(Envelope{Request: &SketchRequest{RequestID: 42}}); err != nil {
			t.Fatal(err)
		}
	}
	want := unhex(t, "53504341 07 | 03 01000000 2a | 03 01000000 2a")
	if !bytes.Equal(s.out.Bytes(), want) {
		t.Fatalf("stream %x, want %x", s.out.Bytes(), want)
	}
}

// TestRecvRefusesOtherProtocols: a Conn refuses, with ErrVersion, a peer whose
// stream opens with gob (a build from before this wire) or with another
// version of this wire (version 1 pulled full windows of Gaussian rows,
// version 2 carried ε in Hello, version 3 sent every column as floats,
// version 4 had no int runs and no implicit flow lists, version 5 sent each
// projection sum whole, version 6 had no deltas), and keeps refusing.
func TestRecvRefusesOtherProtocols(t *testing.T) {
	var gobPeer bytes.Buffer
	if err := gob.NewEncoder(&gobPeer).Encode(&Envelope{Hello: &Hello{MonitorID: "old", FlowIDs: []int{0}, WindowLen: 8}}); err != nil {
		t.Fatal(err)
	}
	version := func(v string) []byte { return append(unhex(t, "53504341 "+v), unhex(t, goldenFrames[0].hex)...) }
	for _, tc := range []struct {
		name   string
		stream []byte
	}{
		{"gob peer", gobPeer.Bytes()},
		{"version 1", version("01")},
		{"version 2", version("02")},
		{"version 3", version("03")},
		{"version 4", version("04")},
		{"version 5", version("05")},
		{"version 6", version("06")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &splitStream{}
			s.in.Write(tc.stream)
			c := NewConnWithMetrics(s, nil)
			for i := 0; i < 2; i++ {
				if _, err := c.Recv(); !errors.Is(err, ErrVersion) {
					t.Fatalf("recv %d: %v, want ErrVersion", i, err)
				}
			}
		})
	}
}

// TestFrameLengthCheckedBeforeAllocation: a frame declaring more than the cap
// is ErrBadMessage at once; one declaring more than follows costs buffer in
// proportion to the bytes that arrived, and ends as a closed connection.
func TestFrameLengthCheckedBeforeAllocation(t *testing.T) {
	over := append(preamble[:], unhex(t, "03 01000004 2a")...) // 0x04000001 > maxFrame
	s := &splitStream{}
	s.in.Write(over)
	c := NewConnWithMetrics(s, nil)
	if _, err := c.Recv(); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("over-cap frame: %v, want ErrBadMessage", err)
	}
	if cap(c.rbuf) > 2*minRead {
		t.Fatalf("read buffer grew to %d bytes for an over-cap frame", cap(c.rbuf))
	}

	short := append(preamble[:], unhex(t, "03 00000004 2a")...) // declares 64 MiB, sends 1 byte
	s = &splitStream{}
	s.in.Write(short)
	c = NewConnWithMetrics(s, nil)
	if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("truncated frame: %v, want ErrClosed", err)
	}
	if cap(c.rbuf) > 2*minRead {
		t.Fatalf("read buffer grew to %d bytes for 7 bytes received", cap(c.rbuf))
	}

	if _, err := decodeFrame(unhex(t, "03 02000000 2a"), new(Envelope)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("frame longer than its bytes: %v, want ErrBadMessage", err)
	}
}

// TestRecvIntoReusesPayloads: RecvInto decodes a payload of the kind that
// arrived into the value the envelope points to, without allocating once its
// slices have grown, and leaves a payload of another kind to a new value.
func TestRecvIntoReusesPayloads(t *testing.T) {
	s := &splitStream{}
	tx, rx := NewConnWithMetrics(s, nil), NewConnWithMetrics(&s.out, nil)
	send := func(v []float64) {
		if err := tx.Send(Envelope{Volume: &VolumeReport{MonitorID: "m1", Interval: 1, FlowIDs: []int{0, 1, 2}, Volumes: v}}); err != nil {
			t.Fatal(err)
		}
	}
	var vol VolumeReport
	recv := func() Envelope {
		env := Envelope{Volume: &vol}
		if err := rx.RecvInto(&env); err != nil {
			t.Fatal(err)
		}
		return env
	}
	send([]float64{1, 2, 3})
	if env := recv(); env.Volume != &vol || vol.Volumes[2] != 3 {
		t.Fatalf("decoded into %p (%+v), want the given report", env.Volume, env.Volume)
	}
	if avg := testing.AllocsPerRun(50, func() { send([]float64{4, 5, 6}); recv() }); avg != 0 {
		t.Fatalf("a reused volume report round trip allocates %.1f times", avg)
	}
	if err := tx.Send(Envelope{Request: &SketchRequest{RequestID: 7}}); err != nil {
		t.Fatal(err)
	}
	if env := recv(); env.Volume != nil || env.Request == nil || env.Request.RequestID != 7 {
		t.Fatalf("request decoded as %+v", env)
	}
}

// TestTraceContextOverConn checks the live transport path: a TraceContext
// attached on one Conn end arrives intact on the other, and untraced frames
// still round-trip with a nil Trace.
func TestTraceContextOverConn(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	go func() {
		_ = a.Send(Envelope{Request: &SketchRequest{RequestID: 1},
			Trace: &TraceContext{TraceID: 0xabc, SpanID: 0xdef}})
		_ = a.Send(Envelope{Request: &SketchRequest{RequestID: 2}})
	}()
	env, err := b.Recv()
	if err != nil {
		t.Fatalf("recv traced: %v", err)
	}
	if env.Trace == nil || env.Trace.TraceID != 0xabc || env.Trace.SpanID != 0xdef {
		t.Fatalf("trace context lost in transit: %+v", env.Trace)
	}
	env, err = b.Recv()
	if err != nil {
		t.Fatalf("recv untraced: %v", err)
	}
	if env.Trace != nil {
		t.Fatalf("untraced frame carries context: %+v", env.Trace)
	}
}

// TestShardMapOverConn: the aggregator-candidate map survives the live
// transport and counts as a payload for Validate.
func TestShardMapOverConn(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	sm := &ShardMap{Aggregators: []string{"127.0.0.1:7001", "127.0.0.1:7002"}, Epoch: 5}
	if err := (&Envelope{Shards: sm}).Validate(); err != nil {
		t.Fatalf("shard-map envelope invalid: %v", err)
	}
	go func() { _ = a.Send(Envelope{Shards: sm}) }()
	env, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Shards == nil || env.Shards.Epoch != 5 || len(env.Shards.Aggregators) != 2 {
		t.Fatalf("shard map mangled in transit: %+v", env.Shards)
	}
}

// TestFDSnapshotOverConn: an FD snapshot survives the live transport intact.
func TestFDSnapshotOverConn(t *testing.T) {
	rep := core.SketchReport{
		Interval: 9, FlowIDs: []int{2, 5},
		Means: []float64{10, 20}, Counts: []int64{9, 9},
		Family:  sketch.FamilyFD,
		FDRows:  [][]float64{{1, -1}, {0.5, 0.25}},
		FDDelta: 3.5, FDEll: 2,
	}
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		_ = a.Send(Envelope{Response: &SketchResponse{RequestID: 8, MonitorID: "fd1", Report: rep}})
	}()
	env, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	got := env.Response.Report
	if got.Family != sketch.FamilyFD || got.FDEll != 2 || got.FDDelta != 3.5 || !sameBits(got.FDRows, rep.FDRows) {
		t.Fatalf("FD payload mangled in transit: %+v", got)
	}
	if err := got.Validate(2); err != nil {
		t.Fatalf("validate after transit: %v", err)
	}
}

// splitStream is a Conn stream whose reads drain in and whose writes fill
// out, so a test can play a peer's bytes in and read the Conn's bytes back.
type splitStream struct{ in, out pipeBuffer }

func (s *splitStream) Read(p []byte) (int, error)  { return s.in.Read(p) }
func (s *splitStream) Write(p []byte) (int, error) { return s.out.Write(p) }
func (s *splitStream) Close() error                { return nil }

// pipeBuffer is a bytes.Buffer usable as a Conn stream on its own.
type pipeBuffer struct{ bytes.Buffer }

func (*pipeBuffer) Close() error { return nil }

// tapStream records every byte read through it.
type tapStream struct {
	io.ReadWriteCloser
	read bytes.Buffer
}

func (s *tapStream) Read(p []byte) (int, error) {
	n, err := s.ReadWriteCloser.Read(p)
	s.read.Write(p[:n])
	return n, err
}

// tappedPipe is PipeWithMetrics(ma, nil) whose b end records what it reads.
func tappedPipe(ma *Metrics) (a, b *Conn, tap *tapStream) {
	x, y := net.Pipe()
	tap = &tapStream{ReadWriteCloser: y}
	return NewConnWithMetrics(x, ma), NewConnWithMetrics(tap, nil), tap
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestColumnsFrameOverPipe: between two Conns a sketch pull ships its
// columns decoded bit for bit (−0, subnormals and ±MaxFloat64 included), in
// fewer bytes than the same response in gob, the encoding of earlier builds.
// The columns are sketch-like, full-mantissa floats, which gob spends nine
// bytes on; the specials sit at the head of each.
func TestColumnsFrameOverPipe(t *testing.T) {
	specials := []float64{
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1030,
		math.MaxFloat64, -math.MaxFloat64,
	}
	const k, l = 6, 32
	rng := rand.New(rand.NewSource(34))
	rep := core.SketchReport{Interval: 9}
	for i := 0; i < k; i++ {
		col := make([]float64, l)
		for j := range col {
			col[j] = 1e5 * rng.NormFloat64()
		}
		copy(col[i%2:], specials)
		rep.FlowIDs = append(rep.FlowIDs, i)
		rep.Sketches = append(rep.Sketches, col)
		rep.Means = append(rep.Means, float64(i))
		rep.Counts = append(rep.Counts, 8)
	}

	// Each response goes out twice and the second is measured: the first also
	// carries the preamble (and in gob the type definitions).
	resp := func() Envelope {
		return Envelope{Response: &SketchResponse{RequestID: 1, MonitorID: "m", Report: rep}}
	}
	reg := obs.NewRegistry()
	a, b, tap := tappedPipe(NewMetrics(reg))
	defer a.Close()
	defer b.Close()
	sentBytes := func() int64 { return counter(reg, "streampca_transport_bytes_total", obs.L("direction", "sent")) }
	var cols [][]float64
	var size int64
	for i := 0; i < 2; i++ {
		before := sentBytes()
		envCh, errCh := recvOne(b)
		if err := a.Send(resp()); err != nil {
			t.Fatal(err)
		}
		select {
		case e := <-envCh:
			cols = e.Response.Report.Sketches
		case err := <-errCh:
			t.Fatal(err)
		}
		size = sentBytes() - before
	}
	if got := int64(tap.read.Len()); got != int64(len(preamble))+2*size {
		t.Fatalf("the receiver read %d bytes, the sender counted %d and a preamble", got, 2*size)
	}

	var gobWire bytes.Buffer
	enc := gob.NewEncoder(&gobWire)
	var gobSize int64
	for i := 0; i < 2; i++ {
		before := gobWire.Len()
		e := resp()
		if err := enc.Encode(&e); err != nil {
			t.Fatal(err)
		}
		gobSize = int64(gobWire.Len() - before)
	}

	if !sameBits(cols, rep.Sketches) {
		t.Fatalf("columns changed in transit:\n sent  %v\n got   %v", rep.Sketches, cols)
	}
	if size >= gobSize {
		t.Fatalf("framed response is %d bytes, gob %d", size, gobSize)
	}
	t.Logf("response of %d×%d floats: gob %d B, frame %d B", k, l, gobSize, size)
}
