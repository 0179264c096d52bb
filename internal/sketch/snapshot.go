package sketch

import (
	"fmt"
	"math"
)

// Snapshot carries a sketcher's current state to the NOC. It is the wire
// payload of transport.SketchResponse (via the core.SketchReport alias).
//
// Wire compatibility: gob matches struct fields by name, so payloads encoded
// before the Family/FD* fields existed decode with their zero values —
// Family's zero value is FamilyRandProj, which is exactly what such payloads
// carry — and newer payloads decode on older binaries with the unknown
// fields dropped (same versioning stance as transport.TraceContext).
type Snapshot struct {
	// Interval is the time of the most recent update covered.
	Interval int64
	// FlowIDs[i] is the global flow index of column i.
	FlowIDs []int
	// Sketches[i] is the l-vector ẑ for flow FlowIDs[i] (RandProj only).
	Sketches [][]float64
	// Means[i] is the per-flow mean estimate for FlowIDs[i]: μ_all from the
	// variance histograms (RandProj) or the running stream mean (FD).
	Means []float64
	// Counts[i] is the number of summarized intervals for the flow.
	Counts []int64
	// Buckets[i] is the current bucket count (RandProj space diagnostics).
	Buckets []int

	// Family identifies the producing sketcher; zero is FamilyRandProj.
	Family Family
	// FDRows are the live buffer rows of an FD sketch: each row is a
	// w-vector over FlowIDs, at most 2·FDEll of them (FD only).
	FDRows [][]float64
	// FDDelta is the accumulated shrinkage Δ = Σ δ_shrink; the deterministic
	// guarantee is ‖AᵀA − BᵀB‖₂ ≤ FDDelta (FD only).
	FDDelta float64
	// FDEll is the basis budget ℓ the producer ran with (FD only).
	FDEll int
}

// Validate checks a snapshot for structural consistency against the
// family-specific sketch parameter: l (sketch length) for RandProj, ℓ (basis
// budget) for FD — the same single value Hello.SketchLen carries on the wire.
func (r *Snapshot) Validate(sketchParam int) error {
	n := len(r.FlowIDs)
	switch r.Family {
	case FamilyRandProj:
		if len(r.Sketches) != n || len(r.Means) != n {
			return fmt.Errorf("%w: report arrays disagree (%d flows, %d sketches, %d means)",
				ErrInput, n, len(r.Sketches), len(r.Means))
		}
		for i, s := range r.Sketches {
			if len(s) != sketchParam {
				return fmt.Errorf("%w: sketch %d has length %d, want %d", ErrInput, i, len(s), sketchParam)
			}
			for _, v := range s {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("%w: non-finite sketch value for flow %d", ErrInput, r.FlowIDs[i])
				}
			}
		}
	case FamilyFD:
		if len(r.Means) != n {
			return fmt.Errorf("%w: report arrays disagree (%d flows, %d means)", ErrInput, n, len(r.Means))
		}
		if r.FDEll < 1 || r.FDEll != sketchParam {
			return fmt.Errorf("%w: fd ell %d, want %d", ErrInput, r.FDEll, sketchParam)
		}
		if len(r.FDRows) > 2*r.FDEll {
			return fmt.Errorf("%w: %d fd rows exceed the 2ℓ=%d buffer", ErrInput, len(r.FDRows), 2*r.FDEll)
		}
		for i, row := range r.FDRows {
			if len(row) != n {
				return fmt.Errorf("%w: fd row %d has %d columns for %d flows", ErrInput, i, len(row), n)
			}
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("%w: non-finite fd row value in row %d", ErrInput, i)
				}
			}
		}
		if math.IsNaN(r.FDDelta) || math.IsInf(r.FDDelta, 0) || r.FDDelta < 0 {
			return fmt.Errorf("%w: fd delta %v", ErrInput, r.FDDelta)
		}
	default:
		return fmt.Errorf("%w: unknown sketch family %d", ErrInput, int(r.Family))
	}
	for i, v := range r.Means {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite mean for flow %d", ErrInput, r.FlowIDs[i])
		}
	}
	return nil
}
