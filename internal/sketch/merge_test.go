package sketch

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"streampca/internal/mat"
	"streampca/internal/randproj"
)

// shardSnapshots feeds one shared stream through per-shard sketchers of the
// given family and returns their snapshots. assign holds each shard's global
// flow ids; rows[t][j] is the volume of global flow j at interval t+1.
func shardSnapshots(t *testing.T, family Family, assign [][]int, sketchParam, window int, rows [][]float64) []Snapshot {
	t.Helper()
	var gen *randproj.Generator
	if family == FamilyRandProj {
		var err error
		gen, err = randproj.NewGenerator(randproj.Config{Seed: 12, SketchLen: sketchParam, WindowLen: window})
		if err != nil {
			t.Fatal(err)
		}
	}
	out := make([]Snapshot, len(assign))
	for si, ids := range assign {
		sk, err := New(Config{
			Family: family, FlowIDs: ids, WindowLen: window,
			Gen: gen, Ell: sketchParam,
		})
		if err != nil {
			t.Fatal(err)
		}
		local := make([]float64, len(ids))
		for ti, row := range rows {
			for i, id := range ids {
				local[i] = row[id]
			}
			if err := sk.Update(int64(ti+1), local); err != nil {
				t.Fatal(err)
			}
		}
		out[si] = sk.Snapshot()
	}
	return out
}

func globalRows(seed int64, n, m int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for t := range rows {
		rows[t] = make([]float64, m)
		for j := range rows[t] {
			rows[t][j] = 500 + 50*rng.NormFloat64()
		}
	}
	return rows
}

// TestMergeRandProjExactUnion: the randproj merge is a per-flow column union —
// every merged column is byte-identical to the owning shard's, sorted by
// global flow id.
func TestMergeRandProjExactUnion(t *testing.T) {
	const m, l, window, n = 12, 8, 64, 40
	assign := [][]int{{0, 3, 6, 9}, {1, 4, 7, 10}, {2, 5, 8, 11}}
	rows := globalRows(31, n, m)
	snaps := shardSnapshots(t, FamilyRandProj, assign, l, window, rows)

	merged, err := MergeColumns(snaps, l)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Validate(l); err != nil {
		t.Fatalf("merged snapshot invalid: %v", err)
	}
	if len(merged.FlowIDs) != m {
		t.Fatalf("merged covers %d flows, want %d", len(merged.FlowIDs), m)
	}
	for i, id := range merged.FlowIDs {
		if id != i {
			t.Fatalf("merged flow order %v not sorted", merged.FlowIDs)
		}
	}
	if merged.Interval != int64(n) {
		t.Fatalf("merged interval %d, want %d", merged.Interval, n)
	}
	// Locate each flow in its owning shard and demand byte identity.
	for si, ids := range assign {
		for i, id := range ids {
			if !reflect.DeepEqual(merged.Sketches[id], snaps[si].Sketches[i]) {
				t.Fatalf("flow %d sketch differs from shard %d", id, si)
			}
			if merged.Means[id] != snaps[si].Means[i] || merged.Counts[id] != snaps[si].Counts[i] {
				t.Fatalf("flow %d mean/count differ from shard %d", id, si)
			}
		}
	}
}

// TestMergeOrderIndependence (the S3 determinism bugfix): any arrival order
// of the shard snapshots must produce a byte-identical merged snapshot, for
// both families — federated decisions cannot be allowed to drift with the
// order aggregator responses happen to land in.
func TestMergeOrderIndependence(t *testing.T) {
	const m, window, n = 15, 64, 60
	assign := [][]int{{0, 3, 6, 9, 12}, {1, 4, 7, 10, 13}, {2, 5, 8, 11, 14}}
	rows := globalRows(32, n, m)
	perms := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}, {1, 0, 2}}

	for _, tc := range []struct {
		family Family
		param  int
	}{{FamilyRandProj, 8}, {FamilyFD, 2}} {
		snaps := shardSnapshots(t, tc.family, assign, tc.param, window, rows)
		base, err := MergeColumns(snaps, tc.param)
		if err != nil {
			t.Fatalf("%v: %v", tc.family, err)
		}
		for _, p := range perms {
			shuffled := make([]Snapshot, len(p))
			for i, idx := range p {
				shuffled[i] = snaps[idx]
			}
			got, err := MergeColumns(shuffled, tc.param)
			if err != nil {
				t.Fatalf("%v perm %v: %v", tc.family, p, err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("%v: merge of order %v differs from canonical", tc.family, p)
			}
		}
		// The deprecated three-argument form is the same merge.
		got, err := Merge(snaps, tc.param, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("%v: Merge differs from MergeColumns", tc.family)
		}
	}
}

// TestMergeFDGuarantee: the merged FD buffer keeps the composed deterministic
// bound ‖AᵀA − BᵀB‖₂ ≤ Δ_merged over the block-diagonal union matrix of the
// shards' (individually centered) row streams.
func TestMergeFDGuarantee(t *testing.T) {
	const m, ell, n = 14, 2, 120
	assign := [][]int{{0, 1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12, 13}}
	rows := globalRows(33, n, m)
	snaps := shardSnapshots(t, FamilyFD, assign, ell, 0, rows)
	merged, err := MergeColumns(snaps, ell)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Validate(ell); err != nil {
		t.Fatalf("merged snapshot invalid: %v", err)
	}
	var wantDelta float64
	for _, s := range snaps {
		wantDelta += s.FDDelta
	}
	if merged.FDDelta < wantDelta {
		t.Fatalf("merged Δ = %v below the sum of inputs' %v", merged.FDDelta, wantDelta)
	}
	// The union matrix: each shard's centered rows zero-padded to width m.
	// Row order is irrelevant to AᵀA.
	var union [][]float64
	for si, ids := range assign {
		local := make([][]float64, n)
		for ti := range rows {
			local[ti] = make([]float64, len(ids))
			for i, id := range ids {
				local[ti][i] = rows[ti][id]
			}
		}
		centered := centerStream(local)
		for ti := 0; ti < n; ti++ {
			full := make([]float64, m)
			for i, id := range ids {
				full[id] = centered.At(ti, i)
			}
			union = append(union, full)
		}
		_ = si
	}
	a := mat.NewMatrix(len(union), m)
	for i, r := range union {
		copy(a.RowView(i), r)
	}
	gap := covGap(t, a, merged.FDRows, m)
	tol := 1e-6 * a.Gram().FrobeniusNorm()
	if gap > merged.FDDelta+tol {
		t.Fatalf("merged ‖AᵀA−BᵀB‖₂ = %v exceeds Δ = %v", gap, merged.FDDelta)
	}
	// Per-flow means come from the owning shard, never averaged across shards.
	for si, ids := range assign {
		for i, id := range ids {
			idx := -1
			for k, fid := range merged.FlowIDs {
				if fid == id {
					idx = k
					break
				}
			}
			if idx < 0 {
				t.Fatalf("flow %d missing from merge", id)
			}
			if math.Abs(merged.Means[idx]-snaps[si].Means[i]) > 0 {
				t.Fatalf("flow %d mean %v, want shard's %v", id, merged.Means[idx], snaps[si].Means[i])
			}
			if merged.Counts[idx] != int64(n) {
				t.Fatalf("flow %d count %d, want %d", id, merged.Counts[idx], n)
			}
		}
	}
}

// TestMergeFDRowsStayOnOneBlock pins the property the FD family's wire size
// rests on: the union of column-sharded buffers has a block-diagonal B·Bᵀ,
// mat.SymEigen solves a reducible matrix one block at a time, so even after
// the merge's own shrinks every merged row is supported on one input shard's
// columns, with exact zeros — one gob byte each — everywhere else. A
// merge of merges, the depth-2 aggregator, keeps every row on one original
// shard's columns the same way.
func TestMergeFDRowsStayOnOneBlock(t *testing.T) {
	// n = 59 leaves every shard 2ℓ−1 = 7 live rows, so the merge shrinks six
	// times; from the second on, the buffer's leading rows are earlier
	// shrinks' output in eigenvalue order — the blocks interleaved, which is
	// where a Householder-based solver starts leaking across them.
	const shards, m, ell, n = 4, 36, 4, 59
	assign := make([][]int, shards)
	owner := make([]int, m)
	for id := 0; id < m; id++ { // flow ids interleaved too
		assign[id%shards] = append(assign[id%shards], id)
		owner[id] = id % shards
	}
	snaps := shardSnapshots(t, FamilyFD, assign, ell, 0, globalRows(35, n, m))
	var rowsIn int
	var deltaIn float64
	for _, s := range snaps {
		rowsIn += len(s.FDRows)
		deltaIn += s.FDDelta
	}
	merged, err := MergeColumns(snaps, ell)
	if err != nil {
		t.Fatal(err)
	}
	if rowsIn < 4*ell || merged.FDDelta <= deltaIn {
		t.Fatalf("merge of %d rows (Δ %v → %v) never shrank: the test is not exercising mergeFD's shrink",
			rowsIn, deltaIn, merged.FDDelta)
	}
	oneBlock := func(name string, merged Snapshot) {
		t.Helper()
		for i, row := range merged.FDRows {
			support := map[int]bool{}
			for k, v := range row {
				if v != 0 {
					support[owner[merged.FlowIDs[k]]] = true
				}
			}
			if len(support) != 1 {
				t.Fatalf("%s row %d is non-zero on the columns of %d input blocks, want exactly 1: %v",
					name, i, len(support), row)
			}
		}
	}
	oneBlock("merged", merged)

	// Depth 2: two aggregators over interleaved shard pairs, then the NOC-side
	// merge of their outputs.
	var mid []Snapshot
	for _, pair := range [][]int{{0, 2}, {1, 3}} {
		agg, err := MergeColumns([]Snapshot{snaps[pair[0]], snaps[pair[1]]}, ell)
		if err != nil {
			t.Fatal(err)
		}
		oneBlock("mid-tier merged", agg)
		mid = append(mid, agg)
	}
	top, err := MergeColumns(mid, ell)
	if err != nil {
		t.Fatal(err)
	}
	if top.FDDelta <= mid[0].FDDelta+mid[1].FDDelta {
		t.Fatalf("merge of merges (Δ %v) never shrank", top.FDDelta)
	}
	oneBlock("merge-of-merges", top)
}

// TestMergeSingleInputPassThrough: an aggregator fronting one monitor must
// forward its snapshot byte-identically (deep copy, no re-sketching) — the
// property the FD flat-vs-federated differential test rests on.
func TestMergeSingleInputPassThrough(t *testing.T) {
	const n = 50
	assign := [][]int{{4, 1, 9, 6, 2, 0, 3}}
	rows := globalRows(34, n, 10)
	for _, tc := range []struct {
		family Family
		param  int
	}{{FamilyRandProj, 8}, {FamilyFD, 3}} {
		snaps := shardSnapshots(t, tc.family, assign, tc.param, 64, rows)
		got, err := MergeColumns(snaps, tc.param)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, snaps[0]) {
			t.Fatalf("%v: single-input merge not a pass-through", tc.family)
		}
		// Deep copy: mutating the result must not reach the input.
		if len(got.Means) > 0 {
			got.Means[0]++
			if got.Means[0] == snaps[0].Means[0] {
				t.Fatalf("%v: merge result aliases its input", tc.family)
			}
		}
	}
}

func TestMergeRejects(t *testing.T) {
	const n = 20
	rows := globalRows(35, n, 10)
	rp := shardSnapshots(t, FamilyRandProj, [][]int{{0, 1, 2}, {3, 4, 5}}, 4, 32, rows)
	fd := shardSnapshots(t, FamilyFD, [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}, 2, 0, rows)

	if _, err := MergeColumns(nil, 4); !errors.Is(err, ErrInput) {
		t.Fatalf("empty merge err = %v", err)
	}
	if _, err := MergeColumns([]Snapshot{rp[0], fd[0]}, 4); !errors.Is(err, ErrInput) {
		t.Fatalf("mixed families err = %v", err)
	}
	dup := []Snapshot{rp[0], rp[0]}
	if _, err := MergeColumns(dup, 4); !errors.Is(err, ErrInput) {
		t.Fatalf("duplicate flows err = %v", err)
	}
	if _, err := MergeColumns(rp, 5); !errors.Is(err, ErrInput) {
		t.Fatalf("wrong sketch param err = %v", err)
	}
	empty := rp[1]
	empty.FlowIDs = nil
	empty.Sketches = nil
	empty.Means = nil
	if _, err := MergeColumns([]Snapshot{rp[0], empty}, 4); !errors.Is(err, ErrInput) {
		t.Fatalf("empty input err = %v", err)
	}
}

// TestMergeColumnsIntoReusesDst: one kept destination, fed randproj unions
// and single-input pass-throughs of different shapes in turn, always equals
// a fresh MergeColumns of the same inputs and never shares an array with
// them; once it has held the widest shape, a repeated merge allocates
// nothing.
func TestMergeColumnsIntoReusesDst(t *testing.T) {
	const l, window, n = 8, 64, 40
	rows := globalRows(36, n, 24)
	wide := shardSnapshots(t, FamilyRandProj, [][]int{{0, 3, 6, 9, 12}, {1, 4, 7, 10}, {2, 5, 8, 11, 13, 14, 15}}, l, window, rows)
	narrow := shardSnapshots(t, FamilyRandProj, [][]int{{20, 17}, {16, 23, 18}}, l, window, rows)
	single := shardSnapshots(t, FamilyRandProj, [][]int{{4, 1, 9, 6, 2, 0, 3}}, l, window, rows)

	// aliases reports whether any of a's arrays shares storage with snap's.
	aliases := func(a *Snapshot, snap *Snapshot) bool {
		same := func(x, y []float64) bool { return len(x) > 0 && len(y) > 0 && &x[0] == &y[0] }
		for _, x := range a.Sketches {
			for _, y := range snap.Sketches {
				if same(x, y) {
					return true
				}
			}
		}
		return same(a.Means, snap.Means) ||
			(len(a.FlowIDs) > 0 && len(snap.FlowIDs) > 0 && &a.FlowIDs[0] == &snap.FlowIDs[0]) ||
			(len(a.Counts) > 0 && len(snap.Counts) > 0 && &a.Counts[0] == &snap.Counts[0])
	}
	var dst Snapshot
	for step, in := range [][]Snapshot{narrow, wide, single, narrow, wide[1:], single, wide} {
		if err := MergeColumnsInto(&dst, in, l); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, err := MergeColumns(in, l)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dst, want) {
			t.Fatalf("step %d: the kept destination differs from a fresh merge", step)
		}
		for i := range in {
			if aliases(&dst, &in[i]) {
				t.Fatalf("step %d: the destination shares an array with input %d", step, i)
			}
		}
	}
	for _, in := range [][]Snapshot{wide, single, narrow} {
		if avg := testing.AllocsPerRun(20, func() {
			if err := MergeColumnsInto(&dst, in, l); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("a merge of %d inputs into a grown destination allocates %v times", len(in), avg)
		}
	}
	// A flow reported twice is refused, within an input as across them.
	twice := append([]Snapshot{}, narrow...)
	twice[1].FlowIDs = []int{16, 23, 16}
	if err := MergeColumnsInto(&dst, twice, l); !errors.Is(err, ErrInput) {
		t.Fatalf("a flow reported twice within an input: err = %v", err)
	}
}
