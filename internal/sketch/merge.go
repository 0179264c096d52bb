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
	var out Snapshot
	if err := MergeColumnsInto(&out, snaps, sketchParam); err != nil {
		return Snapshot{}, err
	}
	return out, nil
}

// MergeColumnsInto is MergeColumns into dst, which must share no array with
// an input: a randproj union and a single input's copy reuse dst's arrays,
// growing them only when they are too small, so a caller that keeps dst
// merges same-shaped pulls without allocating. FD's multi-input merge builds
// a fresh buffer. On error dst's contents are unspecified.
func MergeColumnsInto(dst *Snapshot, snaps []Snapshot, sketchParam int) error {
	if len(snaps) == 0 {
		return fmt.Errorf("%w: merge of no snapshots", ErrInput)
	}
	family := snaps[0].Family
	for i := range snaps {
		s := &snaps[i]
		if s.Family != family {
			return fmt.Errorf("%w: merge mixes families %v and %v", ErrInput, family, s.Family)
		}
		if err := s.Validate(sketchParam); err != nil {
			return fmt.Errorf("merge input %d: %w", i, err)
		}
		if len(s.FlowIDs) == 0 {
			return fmt.Errorf("%w: merge input %d covers no flows", ErrInput, i)
		}
	}
	if len(snaps) == 1 {
		copySnapshot(dst, &snaps[0])
		return nil
	}
	switch family {
	case FamilyRandProj:
		return mergeRandProj(dst, snaps)
	case FamilyFD:
		out, err := mergeFD(snaps, CanonicalOrder(snaps), sketchParam)
		if err != nil {
			return err
		}
		*dst = out
		return nil
	default:
		return fmt.Errorf("%w: merge of unknown family %d", ErrInput, int(family))
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

// copySnapshot deep-copies s into dst's arrays, so the merge result never
// aliases an input's slices (inputs may be cached and reused by the caller).
func copySnapshot(dst, s *Snapshot) {
	out := *s
	out.FlowIDs = append(dst.FlowIDs[:0], s.FlowIDs...)
	out.Means = append(dst.Means[:0], s.Means...)
	out.Counts = append(dst.Counts[:0], s.Counts...)
	out.RowSumOf = append(dst.RowSumOf[:0], s.RowSumOf...)
	out.RowSums = copyRows(dst.RowSums, s.RowSums)
	out.DeltaOf = append(dst.DeltaOf[:0], s.DeltaOf...)
	out.Deltas = resize(dst.Deltas, len(s.Deltas))
	for i, d := range s.Deltas {
		out.Deltas[i].copyFrom(&d)
	}
	out.Sketches = copyRows(dst.Sketches, s.Sketches)
	out.FDRows = copyRows(dst.FDRows, s.FDRows)
	*dst = out
}

// copyRows copies src's rows into dst's, reusing their capacity.
func copyRows(dst, src [][]float64) [][]float64 {
	dst = resizeRows(dst, len(src))
	for i, v := range src {
		dst[i] = append(dst[i][:0], v...)
	}
	return dst
}

// mergeRandProj performs the exact column union into dst, sorted by global
// flow id; a flow reported twice is an error. Each column keeps its count,
// its R′ and its delta, which the union keeps once for each input that
// carried them; the inputs' delta columns must share their Since.
func mergeRandProj(dst *Snapshot, snaps []Snapshot) error {
	n := 0
	var interval, since int64
	sums := false
	for i := range snaps {
		s := &snaps[i]
		n += len(s.FlowIDs)
		interval = max(interval, s.Interval)
		sums = sums || len(s.RowSums) > 0
		if len(s.DeltaOf) > 0 {
			if since != 0 && s.Since != since {
				return fmt.Errorf("%w: merge of deltas since %d and %d", ErrInput, since, s.Since)
			}
			since = s.Since
		}
	}
	*dst = Snapshot{
		Interval: interval,
		Family:   FamilyRandProj,
		FlowIDs:  resize(dst.FlowIDs, n),
		Sketches: resizeRows(dst.Sketches, n),
		Means:    resize(dst.Means, n),
		Counts:   resize(dst.Counts, n),
		RowSums:  dst.RowSums[:0],
		RowSumOf: dst.RowSumOf[:0],
		Since:    since,
		Deltas:   dst.Deltas[:0],
		DeltaOf:  dst.DeltaOf[:0],
	}
	if sums {
		dst.RowSumOf = resize(dst.RowSumOf, n)
	}
	if since != 0 {
		dst.DeltaOf = resize(dst.DeltaOf, n)
	}
	k := 0
	var buf, dbuf [4]int
	for i := range snaps {
		s := &snaps[i]
		// at[r] is the index in dst of s.RowSums[r], once a column names it;
		// dat[g] that of s.Deltas[g].
		at, dat := buf[:0], dbuf[:0]
		for range s.RowSums {
			at = append(at, -1)
		}
		for range s.Deltas {
			dat = append(dat, -1)
		}
		for j, id := range s.FlowIDs {
			if since != 0 {
				dst.DeltaOf[k] = -1
				if g := s.deltaOf(j); g >= 0 {
					if dat[g] < 0 {
						dat[g] = dst.deltaIndex(&s.Deltas[g])
					}
					dst.DeltaOf[k] = dat[g]
				}
			}
			dst.FlowIDs[k] = id
			dst.Sketches[k] = append(dst.Sketches[k][:0], s.Sketches[j]...)
			dst.Means[k], dst.Counts[k] = s.Means[j], s.Counts[j]
			if sums {
				dst.RowSumOf[k] = -1
				if j < len(s.RowSumOf) && s.RowSumOf[j] >= 0 {
					r := s.RowSumOf[j]
					if at[r] < 0 {
						at[r] = dst.rowSumIndex(s.RowSums[r])
					}
					dst.RowSumOf[k] = at[r]
				}
			}
			k++
		}
	}
	sort.Sort((*byFlow)(dst))
	return duplicate(dst.FlowIDs)
}

// byFlow sorts a randproj snapshot's columns by flow id.
type byFlow Snapshot

func (s *byFlow) Len() int           { return len(s.FlowIDs) }
func (s *byFlow) Less(a, b int) bool { return s.FlowIDs[a] < s.FlowIDs[b] }
func (s *byFlow) Swap(a, b int) {
	s.FlowIDs[a], s.FlowIDs[b] = s.FlowIDs[b], s.FlowIDs[a]
	s.Sketches[a], s.Sketches[b] = s.Sketches[b], s.Sketches[a]
	s.Means[a], s.Means[b] = s.Means[b], s.Means[a]
	s.Counts[a], s.Counts[b] = s.Counts[b], s.Counts[a]
	if len(s.RowSumOf) > 0 {
		s.RowSumOf[a], s.RowSumOf[b] = s.RowSumOf[b], s.RowSumOf[a]
	}
	if len(s.DeltaOf) > 0 {
		s.DeltaOf[a], s.DeltaOf[b] = s.DeltaOf[b], s.DeltaOf[a]
	}
}

// duplicate rejects a flow that appears twice in the sorted union ids.
func duplicate(ids []int) error {
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return fmt.Errorf("%w: flow %d reported by two merge inputs", ErrInput, ids[i])
		}
	}
	return nil
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
	if err := duplicate(union); err != nil {
		return Snapshot{}, err
	}
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
