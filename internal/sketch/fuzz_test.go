package sketch

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"testing"
)

// FuzzMergeColumns drives hostile FD snapshots through the path an
// aggregator exposes to its registrants: gob round-trip (the wire format),
// Validate, then MergeColumns beside a well-formed peer's snapshot. The
// invariants: no panics, both steps only ever fail with typed ErrInput, and
// an accepted merge covers both flow sets and still validates.
func FuzzMergeColumns(f *testing.F) {
	// Seed corpus: a well-formed two-flow snapshot and a few mutations.
	seed := func(ell, flows, rows int, delta float64, vals ...float64) []byte {
		var buf bytes.Buffer
		w := func(v uint64) { binary.Write(&buf, binary.LittleEndian, v) }
		w(uint64(ell))
		w(uint64(flows))
		w(uint64(rows))
		w(math.Float64bits(delta))
		for _, v := range vals {
			w(math.Float64bits(v))
		}
		return buf.Bytes()
	}
	f.Add(seed(2, 2, 2, 0.5, 1, 2, 3, 4, 5, 6))
	f.Add(seed(2, 2, 5, -1, 1))
	f.Add(seed(0, 0, 0, math.NaN()))
	f.Add(seed(2, 3, 1, math.Inf(1), 1, 2, 3))
	// Three rows whose Gram is finite but whose spectrum is not.
	f.Add(seed(2, 2, 3, 0, 0, 1, 0, 1, 7e153, 7e153, 7e153, 7e153, 7e153, 7e153))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode the fuzz input into a snapshot shape.
		rd := bytes.NewReader(data)
		next := func() uint64 {
			var v uint64
			if err := binary.Read(rd, binary.LittleEndian, &v); err != nil {
				return 0
			}
			return v
		}
		ell := int(next() % 8)
		flows := int(next() % 8)
		rows := int(next() % 24)
		snap := Snapshot{
			Family:  FamilyFD,
			FDEll:   ell,
			FDDelta: math.Float64frombits(next()),
			FlowIDs: make([]int, flows),
			Means:   make([]float64, flows),
			Counts:  make([]int64, flows),
			FDRows:  make([][]float64, rows),
		}
		for i := range snap.FlowIDs {
			snap.FlowIDs[i] = i
			snap.Means[i] = math.Float64frombits(next())
			snap.Counts[i] = int64(next() % 1000)
		}
		for i := range snap.FDRows {
			snap.FDRows[i] = make([]float64, flows)
			for j := range snap.FDRows[i] {
				snap.FDRows[i][j] = math.Float64frombits(next())
			}
		}

		// Wire round-trip: what the aggregator decodes must be what was sent.
		var wire bytes.Buffer
		if err := gob.NewEncoder(&wire).Encode(snap); err != nil {
			t.Fatalf("gob encode: %v", err)
		}
		var back Snapshot
		if err := gob.NewDecoder(&wire).Decode(&back); err != nil {
			t.Fatalf("gob decode: %v", err)
		}

		const peerEll = 2 // the seed corpus's budget, so its well-formed entry merges
		fd, err := NewFD(Config{FlowIDs: []int{10, 11, 12, 13, 14, 15, 16}, Ell: peerEll})
		if err != nil {
			t.Fatal(err)
		}
		if err := fd.Update(1, []float64{1, 2, 3, 4, 5, 6, 7}); err != nil {
			t.Fatal(err)
		}
		if err := back.Validate(peerEll); err != nil {
			if !errors.Is(err, ErrInput) {
				t.Fatalf("Validate error not typed ErrInput: %v", err)
			}
			return
		}
		merged, err := MergeColumns([]Snapshot{fd.Snapshot(), back}, peerEll)
		if err != nil {
			if !errors.Is(err, ErrInput) {
				t.Fatalf("MergeColumns error not typed ErrInput: %v", err)
			}
			return
		}
		if len(merged.FlowIDs) != 7+flows {
			t.Fatalf("merged snapshot covers %d flows, want %d", len(merged.FlowIDs), 7+flows)
		}
		if err := merged.Validate(peerEll); err != nil {
			t.Fatalf("merged snapshot invalid: %v", err)
		}
		// The fuzzed input owns flows below 10, the peer the rest: whatever
		// the values, every merged row stays on one input's columns.
		for i, row := range merged.FDRows {
			var fuzzed, peer bool
			for k, v := range row {
				if v != 0 {
					fuzzed = fuzzed || merged.FlowIDs[k] < 10
					peer = peer || merged.FlowIDs[k] >= 10
				}
			}
			if fuzzed && peer {
				t.Fatalf("merged row %d is non-zero on both inputs' columns: %v", i, row)
			}
		}
	})
}
