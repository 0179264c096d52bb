package transport

import (
	"io"

	"streampca/internal/obs"
)

// Message-type label values used by the per-type counters; TypeName maps an
// envelope to one of these.
const (
	typeHello    = "hello"
	typeVolume   = "volume"
	typeRequest  = "sketch_request"
	typeResponse = "sketch_response"
	typeAlarm    = "alarm"
	typeError    = "error"
	typeShards   = "shard_map"
	typeInvalid  = "invalid"
)

// typeNames maps a payload kind (wire.go) to its label; kind 0, no
// payload, is invalid.
var typeNames = [...]string{0: typeInvalid, kindHello: typeHello, kindVolume: typeVolume, kindRequest: typeRequest,
	kindResponse: typeResponse, kindAlarm: typeAlarm, kindError: typeError, kindShards: typeShards}

// TypeName returns the metric label for the envelope's payload type.
func (e *Envelope) TypeName() string { return typeNames[e.kind()] }

// Metrics holds the wire-level counters for a set of connections. One
// Metrics instance is shared by every Conn a service owns, so /metrics
// reports aggregate traffic; nil Metrics disables instrumentation with no
// overhead beyond a pointer check.
//
// Exposition names (all under the streampca_transport_ prefix):
//
//	messages_total{direction,type}  counter
//	bytes_total{direction}          counter
//	errors_total{op}                counter (op: encode, decode)
//	connections_total{event}        counter (event: opened, closed)
//	connections_active              gauge
type Metrics struct {
	sent map[string]*obs.Counter
	recv map[string]*obs.Counter

	bytesSent *obs.Counter
	bytesRecv *obs.Counter

	encodeErrors *obs.Counter
	decodeErrors *obs.Counter

	connsOpened *obs.Counter
	connsClosed *obs.Counter
	connsActive *obs.Gauge
}

// NewMetrics registers the transport metric families on reg and returns the
// handle services attach to their connections. All series are registered
// eagerly so /metrics shows zeros before any traffic flows.
func NewMetrics(reg *obs.Registry) *Metrics {
	const (
		msgName   = "streampca_transport_messages_total"
		msgHelp   = "Envelopes moved on monitor-NOC connections, by direction and payload type."
		bytesName = "streampca_transport_bytes_total"
		bytesHelp = "Framed bytes moved on monitor-NOC connections, preambles included, by direction."
		errName   = "streampca_transport_errors_total"
		errHelp   = "Envelope codec failures, by operation."
		connName  = "streampca_transport_connections_total"
		connHelp  = "Connection lifecycle events."
	)
	m := &Metrics{
		sent: make(map[string]*obs.Counter),
		recv: make(map[string]*obs.Counter),
	}
	for _, t := range []string{typeHello, typeVolume, typeRequest, typeResponse, typeAlarm, typeError, typeShards, typeInvalid} {
		m.sent[t] = reg.Counter(msgName, msgHelp, obs.L("direction", "sent"), obs.L("type", t))
		m.recv[t] = reg.Counter(msgName, msgHelp, obs.L("direction", "recv"), obs.L("type", t))
	}
	m.bytesSent = reg.Counter(bytesName, bytesHelp, obs.L("direction", "sent"))
	m.bytesRecv = reg.Counter(bytesName, bytesHelp, obs.L("direction", "recv"))
	m.encodeErrors = reg.Counter(errName, errHelp, obs.L("op", "encode"))
	m.decodeErrors = reg.Counter(errName, errHelp, obs.L("op", "decode"))
	m.connsOpened = reg.Counter(connName, connHelp, obs.L("event", "opened"))
	m.connsClosed = reg.Counter(connName, connHelp, obs.L("event", "closed"))
	m.connsActive = reg.Gauge("streampca_transport_connections_active", "Currently open monitor-NOC connections.")
	return m
}

func (m *Metrics) connOpened() {
	if m == nil {
		return
	}
	m.connsOpened.Inc()
	m.connsActive.Add(1)
}

func (m *Metrics) connClosed() {
	if m == nil {
		return
	}
	m.connsClosed.Inc()
	m.connsActive.Add(-1)
}

func (m *Metrics) sentMsg(t string) {
	if m == nil {
		return
	}
	m.sent[t].Inc()
}

func (m *Metrics) recvMsg(t string) {
	if m == nil {
		return
	}
	m.recv[t].Inc()
}

func (m *Metrics) encodeError() {
	if m == nil {
		return
	}
	m.encodeErrors.Inc()
}

func (m *Metrics) decodeError() {
	if m == nil {
		return
	}
	m.decodeErrors.Inc()
}

// countingStream wraps the raw byte stream so traffic is measured where it
// actually hits the wire, preamble and frame headers included.
type countingStream struct {
	raw io.ReadWriteCloser
	m   *Metrics
}

func (c *countingStream) Read(p []byte) (int, error) {
	n, err := c.raw.Read(p)
	if n > 0 {
		c.m.bytesRecv.Add(int64(n))
	}
	return n, err
}

// Write counts p before it writes it. Counted after the write, the bytes
// could reach the peer, and whatever the peer does on them be seen, before
// the count: a reading taken once the peer has acted (the interval
// benchmark's wire bytes per interval) then missed a frame now and then and
// found it in the next reading. A failed write, after which the connection
// is closed, still counts whole.
func (c *countingStream) Write(p []byte) (int, error) {
	c.m.bytesSent.Add(int64(len(p)))
	return c.raw.Write(p)
}

func (c *countingStream) Close() error { return c.raw.Close() }
