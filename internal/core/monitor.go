// Package core implements the paper's primary contribution: the sketch-based
// streaming PCA algorithm for network-wide traffic anomaly detection.
//
// A Monitor is the local-monitor half (Fig. 2 left; §IV-A/B): it maintains a
// streaming summary — a sketch.Sketcher — over its assigned flows. The
// default family is the paper's random projection carried by per-flow
// variance histograms (O(w·log n) update time, O(w·log² n) space for w
// flows); the Frequent Directions family trades the sliding window for a
// deterministic error bound in O(ℓ·w) space.
//
// A Detector is the NOC half (Fig. 2 right; §IV-C/D/E): it assembles the
// per-flow sketches into the l×m matrix Ẑ, runs PCA on Ẑ (O(m²·l) =
// O(m²·log n) per rebuild instead of O(m²·n) — or O(m·ℓ²) per FD block with
// no m×m eigensolve at all), thresholds the anomaly distance with the
// Q-statistic, and drives the lazy model-refresh protocol: sketches are
// pulled from monitors only when the current measurement exceeds the
// (possibly stale) threshold.
package core

import (
	"errors"

	"streampca/internal/randproj"
	"streampca/internal/sketch"
	"streampca/internal/vh"
)

// Errors returned by the package. ErrConfig and ErrInput are the
// internal/sketch sentinels re-exported, so errors.Is checks hold across the
// core/sketch boundary (SketchReport is an alias of sketch.Snapshot and its
// Validate wraps the sketch-side sentinel).
var (
	// ErrConfig indicates an invalid configuration.
	ErrConfig = sketch.ErrConfig
	// ErrInput indicates structurally invalid runtime input.
	ErrInput = sketch.ErrInput
	// ErrNoModel indicates a detector query before any model was built.
	ErrNoModel = errors.New("core: no model built yet")
)

// MonitorConfig parameterizes a local monitor.
type MonitorConfig struct {
	// Family selects the sketcher implementation; the zero value is the
	// paper's random projection.
	Family sketch.Family
	// FlowIDs lists the global flow indices this monitor is responsible
	// for. Required, non-empty, unique.
	FlowIDs []int
	// WindowLen is n, the sliding-window length in intervals (randproj; the
	// FD family summarizes the full stream prefix).
	WindowLen int
	// Epsilon is not read: variance histograms keep the exact window. It
	// stays because the benchmark (bench/) sets it.
	//
	// Deprecated: unread.
	Epsilon float64
	// Gen is the shared random-number generator; required for the randproj
	// family so sketches from different monitors combine at the NOC.
	Gen *randproj.Generator
	// FDEll is the Frequent Directions basis budget ℓ (FD only); 0 selects
	// sketch.DefaultEll of the assigned flow count.
	FDEll int
}

// Monitor is a local monitor's sketch state: the configured sketch.Sketcher,
// whose methods it promotes (Update, Now, FlowIDs, Snapshot, StateSize, …).
// It is not safe for concurrent use; callers (internal/monitor) serialize.
type Monitor struct {
	sketch.Sketcher
}

// NewMonitor validates cfg and builds the configured sketcher.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	sk, err := sketch.New(sketch.Config{
		Family:    cfg.Family,
		FlowIDs:   cfg.FlowIDs,
		WindowLen: cfg.WindowLen,
		Gen:       cfg.Gen,
		Ell:       cfg.FDEll,
	})
	if err != nil {
		return nil, err
	}
	return &Monitor{sk}, nil
}

// Histogram returns the variance histogram of the i-th assigned flow
// (FlowIDs()[i]) when the monitor runs the randproj family, nil otherwise
// (the FD family has no per-flow histograms). The histogram is live state
// owned by the monitor; callers must only read it (Aggregate, Sketch, …)
// between updates — internal/oracle uses this for differential self-checks.
func (m *Monitor) Histogram(i int) *vh.Histogram {
	rp, ok := m.Sketcher.(*sketch.RandProj)
	if !ok {
		return nil
	}
	return rp.Histogram(i)
}

// SketchReport carries a monitor's current sketch state to the NOC: the
// wire-form sketch.Snapshot, which transport.SketchResponse carries.
type SketchReport = sketch.Snapshot

// DeltaInto is sketch.RandProj.DeltaInto: the monitor's report as delta
// columns against its report at interval since, or false when it cannot
// give one (and always under FD, which keeps its pull whole).
func (m *Monitor) DeltaInto(dst *SketchReport, since int64) bool {
	rp, ok := m.Sketcher.(*sketch.RandProj)
	return ok && rp.DeltaInto(dst, since)
}

// Report is the monitor's Snapshot: what a sketch pull carries, in process
// or deployed. A randproj pull describes the window before the newest
// interval, the one the NOC is scoring; FD cannot take a row out of its
// buffer and sends its full state.
func (m *Monitor) Report() SketchReport { return m.Snapshot() }
