// Package transport defines the wire protocol between local monitors and the
// NOC (Fig. 1): gob-encoded messages over a single duplex TCP connection per
// monitor. Monitors push per-interval volume reports; the NOC pulls sketches
// on demand (the lazy protocol of §IV-C); alarms flow back for visibility.
//
// An in-memory pipe transport with identical semantics backs the integration
// tests, so protocol logic is exercised without sockets.
package transport

import (
	"encoding/gob"
	"errors"
	"fmt"

	"streampca/internal/core"
	"streampca/internal/sketch"
)

// Errors returned by the package.
var (
	// ErrClosed indicates the connection was closed.
	ErrClosed = errors.New("transport: connection closed")
	// ErrBadMessage indicates a structurally invalid message.
	ErrBadMessage = errors.New("transport: bad message")
)

// Role distinguishes the kinds of downstream peers a NOC-side server
// accepts. Wire compatibility: the zero value is a plain monitor, so Hellos
// from binaries built before the field existed decode as monitors.
type Role int

const (
	// RoleMonitor is a leaf monitor owning raw flow sketches.
	RoleMonitor Role = iota
	// RoleAggregator is a mid-tier aggregator fronting a shard of monitors:
	// its Hello's FlowIDs are the union of its monitors' flows and its
	// sketch responses are interval-aligned merges (sketch.MergeColumns).
	RoleAggregator
)

func (r Role) String() string {
	switch r {
	case RoleMonitor:
		return "monitor"
	case RoleAggregator:
		return "aggregator"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Hello announces a monitor to the NOC. It must be the first message on a
// connection.
type Hello struct {
	// MonitorID names the monitor for logs and routing.
	MonitorID string
	// FlowIDs lists the global flow indices the monitor owns.
	FlowIDs []int
	// SketchLen and WindowLen let the NOC verify configuration agreement.
	// SketchLen carries the family's sketch parameter: l for randproj, the
	// basis budget ℓ for FD.
	SketchLen int
	WindowLen int
	// Seed lets the NOC verify the shared randomness agreement (randproj
	// only; FD monitors send 0).
	Seed uint64
	// Family is the sketcher family the monitor runs. Wire compatibility:
	// the zero value is randproj, so a Hello from a monitor built before the
	// field existed decodes as randproj (gob omits zero and unknown fields),
	// and an old NOC decoding a new randproj Hello sees an identical message.
	Family sketch.Family
	// Role tags the peer kind (zero value: monitor). An aggregator re-sends
	// Hello on the same connection when its flow union grows or shrinks —
	// the NOC treats a repeat Hello from an aggregator as re-registration.
	Role Role
}

// VolumeReport carries one interval's volumes for a monitor's flows
// (the volume counter's per-interval report to the NOC, §IV-A).
type VolumeReport struct {
	MonitorID string
	Interval  int64
	FlowIDs   []int
	Volumes   []float64
}

// SketchRequest asks a monitor for its current sketch state.
type SketchRequest struct {
	RequestID uint64
}

// SketchResponse answers a SketchRequest.
type SketchResponse struct {
	RequestID uint64
	MonitorID string
	Report    core.SketchReport
	// Degraded / StaleFlows: set by an aggregator whose merged report had to
	// substitute cached snapshots for StaleFlows flows of unreachable
	// monitors. The NOC folds them into core.Fetch so degraded federated
	// models are flagged exactly like degraded flat ones. Leaf monitors
	// leave both zero.
	Degraded   bool
	StaleFlows int
}

// IdentifiedFlow names one culprit OD flow attached to an alarm by the
// NOC's anomography pursuit.
type IdentifiedFlow struct {
	// Flow is the global flow index.
	Flow int
	// Amount is the estimated injected volume (signed, measurement units).
	Amount float64
	// Confidence is the flow's marginal explained-energy fraction, in [0,1].
	Confidence float64
}

// Alarm notifies monitors (or other subscribers) of a detected anomaly.
type Alarm struct {
	Interval  int64
	Distance  float64
	Threshold float64
	// Degraded marks alarms raised on substituted inputs (cached volumes
	// or a stale-sketch model) — see the NOC's DegradedPolicy.
	Degraded bool
	// Identified carries the anomography culprits, ranked by Confidence
	// descending. Empty when identification is disabled or found nothing.
	// Gob drops unknown fields, so pre-identification peers decode alarms
	// carrying it and post-identification peers accept legacy alarms
	// without it (see compat_test.go).
	Identified []IdentifiedFlow
}

// ShardMap is pushed by an aggregator to its monitors: the full candidate
// list of aggregators fronting the same NOC, so a monitor whose aggregator
// dies can re-place itself (rendezvous hash over the survivors) without any
// central coordination.
type ShardMap struct {
	// Aggregators lists the dial addresses of every aggregator candidate,
	// including the sender. Order is not significant; placement hashes it.
	Aggregators []string
	// Epoch lets receivers discard stale maps: a monitor keeps only the
	// highest epoch it has seen.
	Epoch uint64
}

// ProtocolError reports a fatal protocol-level problem to the peer before
// the connection is dropped.
type ProtocolError struct {
	Msg string
}

// TraceContext carries interval-lineage tracing across the wire (see
// internal/trace): the trace this frame belongs to and the sender-side span
// that caused it, so a sketch pull served on a monitor parents correctly
// under the NOC's fetch span. It is optional metadata, not a payload —
// a peer built without tracing decodes the envelope cleanly (gob ignores
// unknown fields) and simply never sets it.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Envelope is the single message frame exchanged on the wire; exactly one
// payload field is set. Trace is optional metadata that may accompany any
// payload.
type Envelope struct {
	Hello    *Hello
	Volume   *VolumeReport
	Request  *SketchRequest
	Response *SketchResponse
	Alarm    *Alarm
	Error    *ProtocolError
	Shards   *ShardMap
	Trace    *TraceContext
}

// Validate checks that exactly one payload is present.
func (e *Envelope) Validate() error {
	count := 0
	if e.Hello != nil {
		count++
	}
	if e.Volume != nil {
		count++
	}
	if e.Request != nil {
		count++
	}
	if e.Response != nil {
		count++
	}
	if e.Alarm != nil {
		count++
	}
	if e.Error != nil {
		count++
	}
	if e.Shards != nil {
		count++
	}
	if count != 1 {
		return fmt.Errorf("%w: %d payloads set", ErrBadMessage, count)
	}
	return nil
}

// registerTypes makes the payload types known to gob; called from the codec
// constructors so importing the package has no side effects beyond gob's own
// registry (which is append-only and idempotent for identical types).
func registerTypes() {
	gob.Register(Hello{})
	gob.Register(VolumeReport{})
	gob.Register(SketchRequest{})
	gob.Register(SketchResponse{})
	gob.Register(Alarm{})
	gob.Register(ProtocolError{})
	gob.Register(ShardMap{})
	gob.Register(TraceContext{})
}
