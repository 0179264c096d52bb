package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"streampca/internal/mat"
)

// gaussianSketches returns m per-flow sketches of length l with standard
// normal entries, and zero means.
func gaussianSketches(rng *rand.Rand, m, l int) ([][]float64, []float64) {
	sketches := make([][]float64, m)
	for j := range sketches {
		sketches[j] = make([]float64, l)
		for k := range sketches[j] {
			sketches[j][k] = rng.NormFloat64()
		}
	}
	return sketches, make([]float64, m)
}

// totalAlloc returns the bytes the heap has handed out so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestRebuildAllocatesOnlyTheModel: once the detector's rebuild workspace is
// sized, a randproj RebuildModel allocates the model it installs and nothing
// else of note — no Gram, no symmetrized copy, no transpose, no solver log,
// and no Ẑ: the model's Sketch is the detector's own. The model's storage is
// measured by allocating a replica of it (its three slices and two headers),
// so the allocator's size-class rounding is the
// same on both sides; the rest must fit in 4 KiB. (81, 100) is flat-*'s
// deployed shape, solved on the m×m side; (144, 100) is fed-wide's, solved on
// the l×l side.
func TestRebuildAllocatesOnlyTheModel(t *testing.T) {
	const calls, slack = 20, 4 << 10
	for _, c := range []struct{ m, l int }{{81, 100}, {144, 100}} {
		t.Run(fmt.Sprintf("m=%d/l=%d", c.m, c.l), func(t *testing.T) {
			sketches, means := gaussianSketches(rand.New(rand.NewSource(41)), c.m, c.l)
			det, err := NewDetector(DetectorConfig{
				NumFlows: c.m, WindowLen: 4032, SketchLen: c.l, Alpha: 0.01, FixedRank: 6,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := det.RebuildModel(sketches, means, 0); err != nil {
				t.Fatal(err)
			}
			model := det.Model()
			keep := make([]*Model, 0, calls)
			before := totalAlloc()
			for i := 0; i < calls; i++ {
				keep = append(keep, &Model{
					Components: mat.NewMatrix(model.Components.Rows(), model.Components.Cols()),
					Singular:   make([]float64, len(model.Singular)),
					Means:      make([]float64, len(model.Means)),
				})
			}
			own := (totalAlloc() - before) / calls
			runtime.KeepAlive(keep)

			before = totalAlloc()
			for i := 0; i < calls; i++ {
				if err := det.RebuildModel(sketches, means, int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			perCall := (totalAlloc() - before) / calls
			if perCall > own+slack {
				t.Errorf("a rebuild allocates %d B; the model it installs is %d B, so %d B is the rebuild's own (limit %d)",
					perCall, own, perCall-own, slack)
			}
			t.Logf("a rebuild allocates %d B, the model %d B", perCall, own)
		})
	}
}

// TestFailedRebuildDropsTheSharedSketch: Ẑ is written into the storage the
// installed model's Sketch shares, so a rebuild that fails after the write
// leaves that model in force without a Sketch, and one rejected before it
// leaves the Sketch untouched.
func TestFailedRebuildDropsTheSharedSketch(t *testing.T) {
	const m, l = 12, 5
	sketches, means := gaussianSketches(rand.New(rand.NewSource(43)), m, l)
	det, err := NewDetector(DetectorConfig{NumFlows: m, WindowLen: 64, SketchLen: l, Alpha: 0.01, FixedRank: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.RebuildModel(sketches, means, 1); err != nil {
		t.Fatal(err)
	}
	model := det.Model()
	want := model.Sketch.At(0, 0)

	bad := make([][]float64, m)
	for j := range bad {
		bad[j] = append([]float64(nil), sketches[j]...)
	}
	bad[m-1][l-1] = math.NaN()
	if err := det.RebuildModel(bad, means, 2); !errors.Is(err, ErrInput) {
		t.Fatalf("a non-finite sketch: err = %v", err)
	}
	if det.Model() != model || model.Sketch == nil || model.Sketch.At(0, 0) != want {
		t.Fatal("a rebuild rejected before the write changed the installed model's Sketch")
	}

	// Finite sketches whose Gram overflows fail in the eigensolver, after Ẑ
	// was written.
	for j := range bad {
		for k := range bad[j] {
			bad[j][k] = 1e300
		}
	}
	if err := det.RebuildModel(bad, means, 3); err == nil {
		t.Fatal("an overflowing Gram rebuilt")
	}
	if det.Model() != model || model.Sketch != nil {
		t.Fatalf("after a failed fit the installed model keeps a Sketch of %v", model.Sketch.At(0, 0))
	}
}

// TestDistanceDoesNotAllocate: scoring a measurement, the one thing the
// detector does every interval, centres it into a buffer the detector owns.
func TestDistanceDoesNotAllocate(t *testing.T) {
	const m, l = 81, 100
	sketches, means := gaussianSketches(rand.New(rand.NewSource(42)), m, l)
	det, err := NewDetector(DetectorConfig{NumFlows: m, WindowLen: 4032, SketchLen: l, Alpha: 0.01, FixedRank: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.RebuildModel(sketches, means, 0); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m)
	for j := range x {
		x[j] = float64(j)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := det.Distance(x); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Distance allocates %v times per call, want 0", avg)
	}
}
