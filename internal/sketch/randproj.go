package sketch

import (
	"fmt"
	"math"

	"streampca/internal/randproj"
	"streampca/internal/vh"
)

// RandProj is the paper's sketcher: one variance histogram per assigned flow
// carrying random-projection partial sums, O(w·log n) update time and
// O(w·log² n) space for w flows (§IV-A/B).
type RandProj struct {
	flowIDs []int
	hists   []*vh.Histogram
	now     int64
}

// NewRandProj validates cfg and builds the per-flow histograms.
func NewRandProj(cfg Config) (*RandProj, error) {
	if err := validateFlowIDs(cfg.FlowIDs); err != nil {
		return nil, err
	}
	if cfg.Gen == nil {
		return nil, fmt.Errorf("%w: nil random generator", ErrConfig)
	}
	// One ring of projection rows for all w histograms: the first to update
	// at interval t generates r_{t,·}, the rest read it back.
	ring, err := randproj.NewRing(cfg.Gen, cfg.WindowLen)
	if err != nil {
		return nil, fmt.Errorf("row ring: %w", err)
	}
	hists := make([]*vh.Histogram, len(cfg.FlowIDs))
	for i := range cfg.FlowIDs {
		h, err := vh.New(vh.Config{WindowLen: cfg.WindowLen, Epsilon: cfg.Epsilon, Gen: ring})
		if err != nil {
			return nil, fmt.Errorf("histogram for flow %d: %w", cfg.FlowIDs[i], err)
		}
		hists[i] = h
	}
	return &RandProj{flowIDs: append([]int(nil), cfg.FlowIDs...), hists: hists}, nil
}

// Family implements Sketcher.
func (m *RandProj) Family() Family { return FamilyRandProj }

// FlowIDs returns a copy of the assigned global flow indices.
func (m *RandProj) FlowIDs() []int {
	return append([]int(nil), m.flowIDs...)
}

// NumFlows returns w, the number of flows this sketcher handles.
func (m *RandProj) NumFlows() int { return len(m.flowIDs) }

// Now returns the interval of the most recent update.
func (m *RandProj) Now() int64 { return m.now }

// Histogram returns the variance histogram of the i-th assigned flow
// (FlowIDs()[i]). The histogram is live state owned by the sketcher; callers
// must only read it (Aggregate, Sketch, …) between updates — internal/oracle
// uses this for differential self-checks.
func (m *RandProj) Histogram(i int) *vh.Histogram {
	if i < 0 || i >= len(m.hists) {
		return nil
	}
	return m.hists[i]
}

// StateSize sums the variance-histogram bucket counts across all assigned
// flows — the O(w·log² n) sketch-state size the paper bounds, cheap enough
// to poll every interval for a state-size gauge.
func (m *RandProj) StateSize() int {
	total := 0
	for _, h := range m.hists {
		total += h.NumBuckets()
	}
	return total
}

// Update ingests the volumes of interval t; volumes[i] belongs to
// FlowIDs()[i]. Intervals must be strictly increasing. The input is validated
// before any histogram is touched, so a rejected call leaves the sketcher
// unchanged and the same interval can be retried; the error names the
// lowest-indexed offending flow.
func (m *RandProj) Update(t int64, volumes []float64) error {
	if len(volumes) != len(m.flowIDs) {
		return fmt.Errorf("%w: %d volumes for %d flows", ErrInput, len(volumes), len(m.flowIDs))
	}
	if t <= m.now {
		return fmt.Errorf("%w: flow %d: interval %d not after %d", ErrInput, m.flowIDs[0], t, m.now)
	}
	for i, v := range volumes {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: flow %d: non-finite volume at interval %d", ErrInput, m.flowIDs[i], t)
		}
	}
	for i, h := range m.hists {
		if err := h.Update(t, volumes[i]); err != nil {
			return fmt.Errorf("flow %d: %w", m.flowIDs[i], err)
		}
	}
	m.now = t
	return nil
}

// Snapshot extracts the current sketches for all assigned flows.
func (m *RandProj) Snapshot() Snapshot {
	rep := Snapshot{
		Interval: m.now,
		FlowIDs:  append([]int(nil), m.flowIDs...),
		Sketches: make([][]float64, len(m.flowIDs)),
		Means:    make([]float64, len(m.flowIDs)),
		Counts:   make([]int64, len(m.flowIDs)),
		Buckets:  make([]int, len(m.flowIDs)),
		Family:   FamilyRandProj,
	}
	for i, h := range m.hists {
		rep.Sketches[i] = h.Sketch()
		rep.Means[i] = h.EstimateMean()
		rep.Counts[i] = h.Count()
		rep.Buckets[i] = h.NumBuckets()
	}
	return rep
}
