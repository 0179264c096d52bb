package oracle

import (
	"math/rand"
	"testing"

	"streampca/internal/mat"
	"streampca/internal/sketch"
)

// fdTrace builds a T×m trace with mild diurnal structure and returns it next
// to an FD sketcher fed every row (columns cols, basis budget ell).
func fdTrace(t *testing.T, T, m, ell int, cols []int) (*mat.Matrix, sketch.Snapshot) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	tr := mat.NewMatrix(T, m)
	for i := 0; i < T; i++ {
		row := tr.RowView(i)
		for j := range row {
			row[j] = 1000*float64(1+j%3) + 200*rng.NormFloat64()
		}
	}
	fd, err := sketch.NewFD(sketch.Config{FlowIDs: cols, Ell: ell})
	if err != nil {
		t.Fatal(err)
	}
	local := make([]float64, len(cols))
	for i := 0; i < T; i++ {
		row := tr.RowView(i)
		for j, id := range cols {
			local[j] = row[id]
		}
		if err := fd.Update(int64(i+1), local); err != nil {
			t.Fatal(err)
		}
	}
	return tr, fd.Snapshot()
}

// fdCols is a 10-wide shard of the 12-column trace: wider than the 2ℓ=6
// buffer, so shrinks discard real energy and Δ grows.
var fdCols = []int{0, 1, 2, 4, 5, 6, 7, 9, 10, 11}

func TestCheckFDPasses(t *testing.T) {
	// Long enough to force many shrinks (T ≫ 2ℓ) and narrow enough a budget
	// (2ℓ < w) that each shrink genuinely discards energy, on a column
	// subset like a sharded monitor's.
	tr, snap := fdTrace(t, 300, 12, 3, fdCols)
	res := CheckFD(tr, snap)
	if len(res.Violations) > 0 {
		t.Fatalf("honest FD snapshot violated the oracle: %v", res.Violations)
	}
	if res.Checks < 4 {
		t.Fatalf("only %d checks ran", res.Checks)
	}
}

func TestCheckFDCatchesUnderstatedDelta(t *testing.T) {
	tr, snap := fdTrace(t, 300, 12, 3, fdCols)
	if snap.FDDelta <= 0 {
		t.Fatal("trace too short to accumulate shrinkage")
	}
	// A sketcher that under-reports its shrinkage claims a tighter guarantee
	// than its rows support.
	snap.FDDelta = 0
	res := CheckFD(tr, snap)
	if len(res.Violations) == 0 {
		t.Fatal("zeroed Δ must violate fd-guarantee")
	}
}

func TestCheckFDCatchesCorruptRows(t *testing.T) {
	tr, snap := fdTrace(t, 300, 12, 3, fdCols)
	for i := range snap.FDRows[0] {
		snap.FDRows[0][i] *= 25
	}
	res := CheckFD(tr, snap)
	if len(res.Violations) == 0 {
		t.Fatal("corrupted basis row must violate fd-guarantee")
	}
}

func TestCheckFDCatchesDriftedMeans(t *testing.T) {
	tr, snap := fdTrace(t, 300, 12, 3, fdCols)
	snap.Means[2] *= 1.5
	res := CheckFD(tr, snap)
	if len(res.Violations) == 0 {
		t.Fatal("drifted running mean must violate fd-mean-exact")
	}
}
