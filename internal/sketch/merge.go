package sketch

import (
	"fmt"
	"math"
	"sort"
)

// MergeColumns combines same-family snapshots over pairwise-disjoint flow sets into
// one snapshot covering the union — the column-shard merge a mid-tier
// aggregator applies before forwarding a single report upstream.
//
//   - RandProj: the sketch Ẑ = (1/√l)RᵀY is columnwise per flow, so the merge
//     is an exact column union — the merged snapshot carries byte-identical
//     per-flow vectors to the inputs', which is what makes a federated
//     topology's alarm decisions byte-identical to a flat NOC's.
//   - FD: the inputs are column shards of the same row stream, so the merged
//     buffer summarizes the block-diagonal union matrix: every input row is
//     zero-padded to the union width and inserted into a fresh FD with the
//     same budget ℓ. The deterministic guarantee composes additively:
//     ‖AᵀA − BᵀB‖₂ ≤ Σ inputs' Δ + the merge's own shrinkage. Per-flow means
//     and counts come from the owning input (each input centered its own
//     columns, so counts are carried over, never summed).
//
// The result is independent of input order: inputs are sorted by their
// smallest flow id before merging (flow sets are disjoint, so the order is
// total) and the randproj union is additionally sorted by flow id.
// sketchParam is the family's shared parameter (l for RandProj, ℓ for FD).
//
// A single input is passed through as a deep copy, byte-identical — an
// aggregator fronting one monitor adds no approximation.
func MergeColumns(snaps []Snapshot, sketchParam int) (Snapshot, error) {
	if len(snaps) == 0 {
		return Snapshot{}, fmt.Errorf("%w: merge of no snapshots", ErrInput)
	}
	family := snaps[0].Family
	seen := make(map[int]struct{})
	for i := range snaps {
		s := &snaps[i]
		if s.Family != family {
			return Snapshot{}, fmt.Errorf("%w: merge mixes families %v and %v", ErrInput, family, s.Family)
		}
		if err := s.Validate(sketchParam); err != nil {
			return Snapshot{}, fmt.Errorf("merge input %d: %w", i, err)
		}
		if len(s.FlowIDs) == 0 {
			return Snapshot{}, fmt.Errorf("%w: merge input %d covers no flows", ErrInput, i)
		}
		for _, id := range s.FlowIDs {
			if _, dup := seen[id]; dup {
				return Snapshot{}, fmt.Errorf("%w: flow %d reported by two merge inputs", ErrInput, id)
			}
			seen[id] = struct{}{}
		}
	}
	if len(snaps) == 1 {
		return copySnapshot(&snaps[0]), nil
	}
	order := CanonicalOrder(snaps)
	switch family {
	case FamilyRandProj:
		return mergeRandProj(snaps, order), nil
	case FamilyFD:
		return mergeFD(snaps, order, sketchParam)
	default:
		return Snapshot{}, fmt.Errorf("%w: merge of unknown family %d", ErrInput, int(family))
	}
}

// CanonicalOrder returns the indices of snaps in ascending order of each
// snapshot's smallest flow id (a snapshot covering no flows sorts last).
// Over pairwise-disjoint flow sets that is a total order, so any arrival
// order — and any naming or placement of the reporting registrants — merges
// and assembles identically.
func CanonicalOrder(snaps []Snapshot) []int {
	order := make([]int, len(snaps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return minFlow(&snaps[order[a]]) < minFlow(&snaps[order[b]])
	})
	return order
}

func minFlow(s *Snapshot) int {
	min := math.MaxInt
	for _, id := range s.FlowIDs {
		if id < min {
			min = id
		}
	}
	return min
}

// copySnapshot deep-copies a snapshot so the merge result never aliases an
// input's slices (inputs may be cached and reused by the caller).
func copySnapshot(s *Snapshot) Snapshot {
	out := *s
	out.FlowIDs = append([]int(nil), s.FlowIDs...)
	out.Means = append([]float64(nil), s.Means...)
	out.Counts = append([]int64(nil), s.Counts...)
	if s.Sketches != nil {
		out.Sketches = make([][]float64, len(s.Sketches))
		for i, v := range s.Sketches {
			out.Sketches[i] = append([]float64(nil), v...)
		}
	}
	if s.FDRows != nil {
		out.FDRows = make([][]float64, len(s.FDRows))
		for i, v := range s.FDRows {
			out.FDRows[i] = append([]float64(nil), v...)
		}
	}
	return out
}

// mergeRandProj performs the exact column union, sorted by global flow id.
// Counts are carried when the input provides them (they are not part of
// Validate's contract).
func mergeRandProj(snaps []Snapshot, order []int) Snapshot {
	type column struct {
		id     int
		sketch []float64
		mean   float64
		count  int64
	}
	var cols []column
	var interval int64
	for _, si := range order {
		s := &snaps[si]
		if s.Interval > interval {
			interval = s.Interval
		}
		for i, id := range s.FlowIDs {
			c := column{id: id, sketch: append([]float64(nil), s.Sketches[i]...), mean: s.Means[i]}
			if i < len(s.Counts) {
				c.count = s.Counts[i]
			}
			cols = append(cols, c)
		}
	}
	sort.Slice(cols, func(a, b int) bool { return cols[a].id < cols[b].id })
	out := Snapshot{
		Interval: interval,
		Family:   FamilyRandProj,
		FlowIDs:  make([]int, len(cols)),
		Sketches: make([][]float64, len(cols)),
		Means:    make([]float64, len(cols)),
		Counts:   make([]int64, len(cols)),
	}
	for i, c := range cols {
		out.FlowIDs[i] = c.id
		out.Sketches[i] = c.sketch
		out.Means[i] = c.mean
		out.Counts[i] = c.count
	}
	return out
}

// mergeFD summarizes the block-diagonal union of column-sharded FD buffers:
// a fresh FD over the sorted union flow set ingests every input row
// zero-padded to the union width (shrinking as it fills), and the inputs' Δ
// are added on top of the merge's own shrinkage.
func mergeFD(snaps []Snapshot, order []int, ell int) (Snapshot, error) {
	var union []int
	for i := range snaps {
		union = append(union, snaps[i].FlowIDs...)
	}
	sort.Ints(union)
	pos := make(map[int]int, len(union))
	for i, id := range union {
		pos[id] = i
	}
	fd, err := NewFD(Config{Family: FamilyFD, FlowIDs: union, Ell: ell})
	if err != nil {
		return Snapshot{}, fmt.Errorf("fd merge: %w", err)
	}
	w := len(union)
	row := make([]float64, w)
	means := make([]float64, w)
	counts := make([]int64, w)
	var childDelta float64
	var interval int64
	for _, si := range order {
		s := &snaps[si]
		if s.Interval > interval {
			interval = s.Interval
		}
		childDelta += s.FDDelta
		cols := make([]int, len(s.FlowIDs))
		for i, id := range s.FlowIDs {
			cols[i] = pos[id]
			means[pos[id]] = s.Means[i]
			if i < len(s.Counts) {
				counts[pos[id]] = s.Counts[i]
			}
		}
		for _, r := range s.FDRows {
			for i := range row {
				row[i] = 0
			}
			for i, v := range r {
				row[cols[i]] = v
			}
			if err := fd.insertRow(row); err != nil {
				return Snapshot{}, fmt.Errorf("fd merge: %w", err)
			}
		}
	}
	delta := fd.delta + childDelta
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return Snapshot{}, fmt.Errorf("%w: fd merge overflows Δ", ErrInput)
	}
	out := Snapshot{
		Interval: interval,
		Family:   FamilyFD,
		FlowIDs:  union,
		Means:    means,
		Counts:   counts,
		FDRows:   make([][]float64, fd.used),
		FDDelta:  delta,
		FDEll:    ell,
	}
	for i := 0; i < fd.used; i++ {
		out.FDRows[i] = append([]float64(nil), fd.buf.RowView(i)...)
	}
	return out, nil
}
