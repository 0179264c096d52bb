package transport

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/obs"
	"streampca/internal/sketch"
)

// legacyEnvelope mirrors the pre-TraceContext wire frame: same payload
// fields, no Trace. gob matches struct fields by name, so this stands in
// for a peer built from an older checkout — the mixed-version scenario of
// a tracing rollout done one monitor at a time.
type legacyEnvelope struct {
	Hello    *Hello
	Volume   *VolumeReport
	Request  *SketchRequest
	Response *SketchResponse
	Alarm    *Alarm
	Error    *ProtocolError
}

// TestTraceContextNewToOldPeer checks that envelopes carrying a
// TraceContext decode cleanly on a peer that has never heard of the field:
// the payload arrives intact and the trace metadata is silently dropped.
func TestTraceContextNewToOldPeer(t *testing.T) {
	frames := []Envelope{
		{Request: &SketchRequest{RequestID: 42},
			Trace: &TraceContext{TraceID: 0xdeadbeef, SpanID: 7}},
		{Volume: &VolumeReport{MonitorID: "m1", Interval: 9,
			FlowIDs: []int{0, 1}, Volumes: []float64{1.5, 2.5}},
			Trace: &TraceContext{TraceID: 1, SpanID: 2}},
		{Alarm: &Alarm{Interval: 9, Distance: 3.5, Threshold: 1.25},
			Trace: &TraceContext{TraceID: 3}},
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for i := range frames {
		if err := enc.Encode(&frames[i]); err != nil {
			t.Fatalf("encode frame %d: %v", i, err)
		}
	}
	dec := gob.NewDecoder(&buf)
	for i := range frames {
		var got legacyEnvelope
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("old peer failed to decode traced frame %d: %v", i, err)
		}
		switch i {
		case 0:
			if got.Request == nil || got.Request.RequestID != 42 {
				t.Fatalf("frame 0 payload mangled: %+v", got)
			}
		case 1:
			if got.Volume == nil || got.Volume.MonitorID != "m1" || len(got.Volume.Volumes) != 2 {
				t.Fatalf("frame 1 payload mangled: %+v", got)
			}
		case 2:
			if got.Alarm == nil || got.Alarm.Distance != 3.5 {
				t.Fatalf("frame 2 payload mangled: %+v", got)
			}
		}
	}
}

// TestTraceContextOldToNewPeer checks the reverse direction: frames from a
// peer built without the field decode into the current Envelope with a nil
// Trace and pass Validate.
func TestTraceContextOldToNewPeer(t *testing.T) {
	frames := []legacyEnvelope{
		{Hello: &Hello{MonitorID: "m2", FlowIDs: []int{3}, SketchLen: 8, WindowLen: 16, Seed: 99}},
		{Response: &SketchResponse{RequestID: 5, MonitorID: "m2"}},
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for i := range frames {
		if err := enc.Encode(&frames[i]); err != nil {
			t.Fatalf("encode frame %d: %v", i, err)
		}
	}
	dec := gob.NewDecoder(&buf)
	for i := range frames {
		var got Envelope
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("new peer failed to decode legacy frame %d: %v", i, err)
		}
		if got.Trace != nil {
			t.Fatalf("frame %d grew a trace context from nowhere: %+v", i, got.Trace)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("frame %d invalid after decode: %v", i, err)
		}
	}
	if frames[0].Hello.Seed != 99 {
		t.Fatal("sanity")
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

// legacyHello and legacySketchReport mirror the pre-Family wire structs: a
// Hello without the Family field and a sketch snapshot without the FD
// payload. They stand in for a monitor built from an older checkout during a
// family rollout.
type legacyHello struct {
	MonitorID string
	FlowIDs   []int
	SketchLen int
	WindowLen int
	Seed      uint64
}

type legacySketchReport struct {
	Interval int64
	FlowIDs  []int
	Sketches [][]float64
	Means    []float64
	Counts   []int64
	Buckets  []int
}

type legacySketchResponse struct {
	RequestID uint64
	MonitorID string
	Report    legacySketchReport
}

// TestFamilyFieldOldToNewPeer: frames from a pre-Family monitor must decode
// on the current NOC as the randproj family (the enum's zero value) with the
// snapshot passing validation — the rollout invariant that lets families be
// deployed one monitor at a time.
func TestFamilyFieldOldToNewPeer(t *testing.T) {
	old := struct {
		Hello    *legacyHello
		Response *legacySketchResponse
	}{
		Hello: &legacyHello{MonitorID: "m3", FlowIDs: []int{0, 1}, SketchLen: 2, WindowLen: 8, Seed: 7},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	var got Envelope
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("decode legacy hello: %v", err)
	}
	if got.Hello == nil || got.Hello.Family != sketch.FamilyRandProj {
		t.Fatalf("legacy hello family = %+v, want randproj zero value", got.Hello)
	}

	buf.Reset()
	resp := legacySketchResponse{RequestID: 1, MonitorID: "m3", Report: legacySketchReport{
		Interval: 4, FlowIDs: []int{0, 1},
		Sketches: [][]float64{{1, 2}, {3, 4}},
		Means:    []float64{5, 6}, Counts: []int64{4, 4}, Buckets: []int{3, 3},
	}}
	if err := gob.NewEncoder(&buf).Encode(&struct{ Response *legacySketchResponse }{&resp}); err != nil {
		t.Fatal(err)
	}
	got = Envelope{}
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("decode legacy response: %v", err)
	}
	if got.Response == nil || got.Response.Report.Family != sketch.FamilyRandProj {
		t.Fatalf("legacy report family = %+v", got.Response)
	}
	if err := got.Response.Report.Validate(2); err != nil {
		t.Fatalf("legacy report failed validation: %v", err)
	}
}

// legacyFederationEnvelope mirrors the pre-federation frame: Hello without
// Role, SketchResponse without Degraded/StaleFlows, no Shards payload.
type legacyFederationEnvelope struct {
	Hello    *legacyHello
	Response *legacySketchResponse
	Trace    *TraceContext
}

// TestFederationFieldsCompat pins the rollout invariant for the aggregator
// tier: pre-federation peers decode the new frames keeping the fields they
// know, and frames from such peers decode on the current build with the
// zero-value role (monitor) and a clean (non-degraded) response.
func TestFederationFieldsCompat(t *testing.T) {
	// New → old: a Role-tagged, degraded response frame.
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	frames := []Envelope{
		{Hello: &Hello{MonitorID: "agg-0", FlowIDs: []int{0, 1, 2}, SketchLen: 4,
			WindowLen: 16, Role: RoleAggregator}},
		{Response: &SketchResponse{RequestID: 3, MonitorID: "agg-0",
			Degraded: true, StaleFlows: 2}},
	}
	for i := range frames {
		if err := enc.Encode(&frames[i]); err != nil {
			t.Fatalf("encode frame %d: %v", i, err)
		}
	}
	dec := gob.NewDecoder(&buf)
	var oldHello, oldResp legacyFederationEnvelope
	if err := dec.Decode(&oldHello); err != nil {
		t.Fatalf("old peer failed on role-tagged hello: %v", err)
	}
	if oldHello.Hello == nil || oldHello.Hello.MonitorID != "agg-0" || len(oldHello.Hello.FlowIDs) != 3 {
		t.Fatalf("hello shared fields mangled for old peer: %+v", oldHello.Hello)
	}
	if err := dec.Decode(&oldResp); err != nil {
		t.Fatalf("old peer failed on degraded response: %v", err)
	}
	if oldResp.Response == nil || oldResp.Response.RequestID != 3 {
		t.Fatalf("response shared fields mangled for old peer: %+v", oldResp.Response)
	}

	// Old → new: a legacy frame must come out as a plain, non-degraded
	// monitor and pass Validate.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&legacyFederationEnvelope{
		Hello: &legacyHello{MonitorID: "m9", FlowIDs: []int{4}, SketchLen: 4, WindowLen: 16},
	}); err != nil {
		t.Fatal(err)
	}
	var got Envelope
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("new peer failed on legacy hello: %v", err)
	}
	if got.Hello == nil || got.Hello.Role != RoleMonitor {
		t.Fatalf("legacy hello role = %+v, want monitor zero value", got.Hello)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardMapOverConn: the aggregator-candidate map survives the live
// transport, counts as a payload for Validate, and an old peer decoding the
// frame sees an empty (payload-less) envelope rather than an error.
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

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Envelope{Shards: sm}); err != nil {
		t.Fatal(err)
	}
	var old legacyFederationEnvelope
	if err := gob.NewDecoder(&buf).Decode(&old); err != nil {
		t.Fatalf("old peer failed on shard-map frame: %v", err)
	}
	if old.Hello != nil || old.Response != nil {
		t.Fatalf("shard-map frame grew a payload for old peer: %+v", old)
	}
}

// TestFDSnapshotOverConn: an FD snapshot (the new wire fields) survives the
// live transport intact and an old peer decoding the same frame keeps the
// fields it knows while dropping the FD payload cleanly.
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
	if got.Family != sketch.FamilyFD || got.FDEll != 2 || got.FDDelta != 3.5 || len(got.FDRows) != 2 {
		t.Fatalf("FD payload mangled in transit: %+v", got)
	}
	if err := got.Validate(2); err != nil {
		t.Fatalf("validate after transit: %v", err)
	}

	// Old peer direction: the frame decodes into the legacy shape, keeping
	// the shared fields.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Envelope{
		Response: &SketchResponse{RequestID: 8, MonitorID: "fd1", Report: rep},
	}); err != nil {
		t.Fatal(err)
	}
	var old struct{ Response *legacySketchResponse }
	if err := gob.NewDecoder(&buf).Decode(&old); err != nil {
		t.Fatalf("old peer failed to decode fd frame: %v", err)
	}
	if old.Response == nil || old.Response.Report.Interval != 9 || len(old.Response.Report.Means) != 2 {
		t.Fatalf("shared fields mangled for old peer: %+v", old.Response)
	}
}

// legacyAlarm mirrors the pre-identification Alarm: same fields, no
// Identified list — a subscriber built before the anomography rollout.
type legacyAlarm struct {
	Interval  int64
	Distance  float64
	Threshold float64
	Degraded  bool
}

// TestIdentifiedAlarmNewToOldPeer checks that alarms carrying anomography
// culprits decode on a pre-identification peer: the alarm fields arrive
// intact and the culprit list is silently dropped.
func TestIdentifiedAlarmNewToOldPeer(t *testing.T) {
	frame := Envelope{Alarm: &Alarm{
		Interval: 12, Distance: 9.5, Threshold: 2.25, Degraded: true,
		Identified: []IdentifiedFlow{
			{Flow: 41, Amount: 5e5, Confidence: 0.93},
			{Flow: 7, Amount: -1e4, Confidence: 0.04},
		},
	}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&frame); err != nil {
		t.Fatalf("encode identified alarm: %v", err)
	}
	var got struct{ Alarm *legacyAlarm }
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("old peer failed to decode identified alarm: %v", err)
	}
	if got.Alarm == nil || got.Alarm.Interval != 12 || got.Alarm.Distance != 9.5 ||
		got.Alarm.Threshold != 2.25 || !got.Alarm.Degraded {
		t.Fatalf("alarm fields mangled for old peer: %+v", got.Alarm)
	}
}

// TestIdentifiedAlarmOldToNewPeer checks the reverse: a legacy alarm
// decodes into the current Envelope with an empty culprit list and passes
// Validate.
func TestIdentifiedAlarmOldToNewPeer(t *testing.T) {
	legacy := struct{ Alarm *legacyAlarm }{
		Alarm: &legacyAlarm{Interval: 3, Distance: 4.5, Threshold: 1.5},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatalf("encode legacy alarm: %v", err)
	}
	var got Envelope
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("new peer failed to decode legacy alarm: %v", err)
	}
	if got.Alarm == nil || got.Alarm.Distance != 4.5 || len(got.Alarm.Identified) != 0 {
		t.Fatalf("legacy alarm mangled: %+v", got.Alarm)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("legacy alarm invalid after decode: %v", err)
	}
}

// legacySketchRequest mirrors the pre-frame request: no ReadsFrame. It stands
// in for a requester built before sketch columns could travel as a
// ColumnsFrame.
type legacySketchRequest struct {
	RequestID uint64
}

// splitStream is a Conn stream whose reads drain in and whose writes fill
// out, so a test can play a peer's bytes in and read the Conn's bytes back.
type splitStream struct{ in, out bytes.Buffer }

func (s *splitStream) Read(p []byte) (int, error)  { return s.in.Read(p) }
func (s *splitStream) Write(p []byte) (int, error) { return s.out.Write(p) }
func (s *splitStream) Close() error                { return nil }

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

// ask has requester send a SketchRequest and responder receive it, which
// turns the column frame on for responder's next responses.
func ask(t *testing.T, requester, responder *Conn) {
	t.Helper()
	envCh, errCh := recvOne(responder)
	if err := requester.Send(Envelope{Request: &SketchRequest{RequestID: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-envCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(2 * time.Second):
		t.Fatal("request never arrived")
	}
}

// gobStream gob-encodes frames with one encoder, as one peer's stream.
func gobStream(t *testing.T, frames ...any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for i, f := range frames {
		if err := enc.Encode(f); err != nil {
			t.Fatalf("encode frame %d: %v", i, err)
		}
	}
	return buf.Bytes()
}

// wireEnvelope decodes the first envelope of a gob stream as it crossed the
// wire, without a Conn, so a response's Columns is left as it arrived.
func wireEnvelope(t *testing.T, stream []byte) Envelope {
	t.Helper()
	var e Envelope
	if err := gob.NewDecoder(bytes.NewReader(stream)).Decode(&e); err != nil {
		t.Fatalf("decode wire envelope: %v", err)
	}
	return e
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

// TestColumnsFrameNegotiation: a responder packs a response's columns as a
// ColumnsFrame only for a request that set ReadsFrame, and only for a
// randproj report whose columns share one length; every other response is
// gob as before, readable by a requester built before the frame existed.
// Whatever the wire form, this tree's Recv returns the response that was
// sent, so the receiver's Validate says what it said before the frame.
func TestColumnsFrameNegotiation(t *testing.T) {
	randproj := core.SketchReport{
		Interval: 4, FlowIDs: []int{0, 1},
		Sketches: [][]float64{{1, 2}, {3, 4}},
		Means:    []float64{5, 6}, Counts: []int64{4, 4}, Buckets: []int{3, 3},
	}
	fd := core.SketchReport{
		Interval: 4, FlowIDs: []int{0, 1},
		Means: []float64{5, 6}, Counts: []int64{4, 4},
		Family: sketch.FamilyFD, FDRows: [][]float64{{1, 0}, {0, 0.5}}, FDDelta: 0.25, FDEll: 2,
	}
	ragged := randproj
	ragged.Sketches = [][]float64{{1, 2}, {3}}
	oldRequest := struct{ Request *legacySketchRequest }{&legacySketchRequest{RequestID: 1}}
	newRequest := Envelope{Request: &SketchRequest{RequestID: 1, ReadsFrame: true}}

	for _, tc := range []struct {
		name       string
		request    any
		rep        core.SketchReport
		wantFramed bool
	}{
		{"old requester gets gob", oldRequest, randproj, false},
		{"new requester gets the frame", newRequest, randproj, true},
		{"fd is never framed", newRequest, fd, false},
		{"ragged columns fall back to gob", newRequest, ragged, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &splitStream{}
			s.in.Write(gobStream(t, tc.request))
			c := NewConnWithMetrics(s, nil)
			if env, err := c.Recv(); err != nil || env.Request == nil {
				t.Fatalf("recv request: %+v, %v", env, err)
			}
			sent := SketchResponse{RequestID: 1, MonitorID: "m", Report: tc.rep}
			if err := c.Send(Envelope{Response: &sent}); err != nil {
				t.Fatal(err)
			}
			wire := s.out.Bytes()

			raw := wireEnvelope(t, wire).Response
			if framed := raw.Columns != nil; framed != tc.wantFramed {
				t.Fatalf("response framed = %v, want %v", framed, tc.wantFramed)
			}
			if tc.wantFramed && raw.Report.Sketches != nil {
				t.Fatalf("framed response also carries gob columns: %v", raw.Report.Sketches)
			}
			if !tc.wantFramed {
				var old struct{ Response *legacySketchResponse }
				if err := gob.NewDecoder(bytes.NewReader(wire)).Decode(&old); err != nil {
					t.Fatalf("old requester failed to decode the response: %v", err)
				}
				if !reflect.DeepEqual(old.Response.Report.Sketches, tc.rep.Sketches) {
					t.Fatalf("old requester decoded %v, want %v", old.Response.Report.Sketches, tc.rep.Sketches)
				}
			}

			peer := &splitStream{}
			peer.in.Write(wire)
			env, err := NewConnWithMetrics(peer, nil).Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*env.Response, sent) {
				t.Fatalf("received %+v, sent %+v", *env.Response, sent)
			}
			got, want := env.Response.Report.Validate(2), tc.rep.Validate(2)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("receiver's Validate = %v, want %v", got, want)
			}
		})
	}
}

// TestColumnsFrameNewRequesterOldResponder: a responder built before
// ReadsFrame existed reads this tree's request, drops the bit and answers in
// gob, and the requester decodes those columns as it always has.
func TestColumnsFrameNewRequesterOldResponder(t *testing.T) {
	s := &splitStream{}
	c := NewConnWithMetrics(s, nil)
	if err := c.Send(Envelope{Request: &SketchRequest{RequestID: 6}}); err != nil {
		t.Fatal(err)
	}
	if raw := wireEnvelope(t, s.out.Bytes()); !raw.Request.ReadsFrame {
		t.Fatal("Send did not set ReadsFrame on the request")
	}
	var old struct{ Request *legacySketchRequest }
	if err := gob.NewDecoder(&s.out).Decode(&old); err != nil || old.Request == nil || old.Request.RequestID != 6 {
		t.Fatalf("old responder decoded %+v, %v", old.Request, err)
	}

	resp := legacySketchResponse{RequestID: 6, MonitorID: "m", Report: legacySketchReport{
		Interval: 4, FlowIDs: []int{0, 1},
		Sketches: [][]float64{{1, 2}, {3, 4}},
		Means:    []float64{5, 6}, Counts: []int64{4, 4}, Buckets: []int{3, 3},
	}}
	s.in.Write(gobStream(t, struct{ Response *legacySketchResponse }{&resp}))
	env, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env.Response.Report.Sketches, resp.Report.Sketches) {
		t.Fatalf("decoded %v, want %v", env.Response.Report.Sketches, resp.Report.Sketches)
	}
	if err := env.Response.Report.Validate(2); err != nil {
		t.Fatal(err)
	}
}

// TestColumnsFrameOverPipe: between two Conns of this tree a sketch pull
// ships its columns framed, decoded bit for bit (−0, subnormals and
// ±MaxFloat64 included), in fewer bytes than the same response in gob. The
// columns are sketch-like, full-mantissa floats, which gob spends nine bytes
// on; the specials sit at the head of each.
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
	}

	// pull runs one response from a to b twice, the second time measured:
	// the first also carries gob's type definitions. With asked, b sends a
	// request first.
	pull := func(asked bool) (got [][]float64, framed bool, size int64) {
		reg := obs.NewRegistry()
		a, b, tap := tappedPipe(NewMetrics(reg))
		defer a.Close()
		defer b.Close()
		if asked {
			ask(t, b, a)
		}
		sentBytes := func() int64 { return counter(reg, "streampca_transport_bytes_total", obs.L("direction", "sent")) }
		for i := 0; i < 2; i++ {
			before := sentBytes()
			envCh, errCh := recvOne(b)
			if err := a.Send(Envelope{Response: &SketchResponse{RequestID: 1, MonitorID: "m", Report: rep}}); err != nil {
				t.Fatal(err)
			}
			select {
			case e := <-envCh:
				got = e.Response.Report.Sketches
			case err := <-errCh:
				t.Fatal(err)
			}
			size = sentBytes() - before
		}
		return got, wireEnvelope(t, tap.read.Bytes()).Response.Columns != nil, size
	}

	gobCols, gobFramed, gobSize := pull(false)
	cols, framed, size := pull(true)
	if gobFramed || !framed {
		t.Fatalf("framed without a request = %v, after one = %v; want false, true", gobFramed, framed)
	}
	if !sameBits(gobCols, rep.Sketches) || !sameBits(cols, rep.Sketches) {
		t.Fatalf("columns changed in transit:\n sent  %v\n gob   %v\n frame %v", rep.Sketches, gobCols, cols)
	}
	if size >= gobSize {
		t.Fatalf("framed response is %d bytes, gob %d", size, gobSize)
	}
	t.Logf("response of %d×%d floats: gob %d B, frame %d B", k, l, gobSize, size)
}
