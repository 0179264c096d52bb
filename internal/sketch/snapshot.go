package sketch

import (
	"fmt"
	"math"
	"slices"
)

// Snapshot carries a sketcher's current state to the NOC. It is the wire
// payload of transport.SketchResponse (via the core.SketchReport alias),
// which carries every field in order and every float as its exact bit
// pattern; a peer of another wire version is refused, not decoded.
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
	// RowSums are the distinct ±1 row sums R′ = Σ r_t over the windows the
	// columns summarize, and RowSumOf[i] is the index of column i's, or −1
	// where it is not known (RandProj only; both are empty when none is).
	// With byte-count volumes a column and its mean are exact integer sums
	// over R′, and a pull sends those instead (transport's wire.go).
	RowSums  [][]float64
	RowSumOf []int

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
		if len(r.Sketches) != n || len(r.Means) != n || len(r.Counts) != n {
			return fmt.Errorf("%w: report arrays disagree (%d flows, %d sketches, %d means, %d counts)",
				ErrInput, n, len(r.Sketches), len(r.Means), len(r.Counts))
		}
		if len(r.RowSumOf) != 0 && len(r.RowSumOf) != n {
			return fmt.Errorf("%w: %d row-sum indices for %d flows", ErrInput, len(r.RowSumOf), n)
		}
		for i, k := range r.RowSumOf {
			if k < -1 || k >= len(r.RowSums) {
				return fmt.Errorf("%w: flow %d names row sum %d of %d", ErrInput, r.FlowIDs[i], k, len(r.RowSums))
			}
		}
		for _, rs := range r.RowSums {
			if len(rs) != sketchParam {
				return fmt.Errorf("%w: a row sum has length %d, want %d", ErrInput, len(rs), sketchParam)
			}
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

// resize returns s with length n, reusing its capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// RowSum returns column i's R′, or nil when it is not known.
func (r *Snapshot) RowSum(i int) []float64 {
	if i >= len(r.RowSumOf) || r.RowSumOf[i] < 0 {
		return nil
	}
	return r.RowSums[r.RowSumOf[i]]
}

// rowSumIndex returns the index of the row sum equal to v, appending a copy
// of v when there is none: snapshots of one interval share their R′.
func (r *Snapshot) rowSumIndex(v []float64) int {
	for k, rs := range r.RowSums {
		if slices.Equal(rs, v) {
			return k
		}
	}
	n := len(r.RowSums)
	r.RowSums = resizeRows(r.RowSums, n+1)
	r.RowSums[n] = append(r.RowSums[n][:0], v...)
	return n
}

// resizeRows returns rows with length n, keeping the rows its capacity
// holds for reuse.
func resizeRows(rows [][]float64, n int) [][]float64 {
	if cap(rows) < n {
		grown := make([][]float64, n)
		copy(grown, rows[:cap(rows)])
		return grown
	}
	return rows[:n]
}
