package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
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

// TestRebuildAllocatesOnlyTheModel: once the detector's rebuild workspace and
// both of its models are sized (two rebuilds), a randproj RebuildModel
// allocates nothing — no Gram, no symmetrized copy, no transpose, no solver
// log, no Ẑ (the model's Sketch is the detector's own) and no model: it fills
// the one not in force. (81, 100) is flat-*'s deployed shape, solved on the
// m×m side; (144, 100) is fed-wide's, solved on the l×l side.
func TestRebuildAllocatesOnlyTheModel(t *testing.T) {
	for _, c := range []struct{ m, l int }{{81, 100}, {144, 100}} {
		t.Run(fmt.Sprintf("m=%d/l=%d", c.m, c.l), func(t *testing.T) {
			sketches, means := gaussianSketches(rand.New(rand.NewSource(41)), c.m, c.l)
			det, err := NewDetector(DetectorConfig{
				NumFlows: c.m, WindowLen: 4032, SketchLen: c.l, Alpha: 0.01, FixedRank: 6,
			})
			if err != nil {
				t.Fatal(err)
			}
			var builtAt int64
			rebuild := func() {
				builtAt++
				if err := det.RebuildModel(sketches, means, builtAt); err != nil {
					t.Fatal(err)
				}
			}
			rebuild()
			rebuild()
			if avg := testing.AllocsPerRun(20, rebuild); avg != 0 {
				t.Errorf("a rebuild allocates %v times once both models are sized, want 0", avg)
			}
		})
	}
}

// modelValues is a copy of what a model holds besides its Sketch.
type modelValues struct {
	components, singular, means []float64
	rank                        int
	threshold                   float64
}

func valuesOf(model *Model) modelValues {
	v := modelValues{singular: slices.Clone(model.Singular), means: slices.Clone(model.Means),
		rank: model.Rank, threshold: model.Threshold}
	for i := 0; i < model.Components.Rows(); i++ {
		v.components = append(v.components, model.Components.RowView(i)...)
	}
	return v
}

// TestModelOutlivesTheNextRebuild: a rebuild fills the model not in force, so
// the model it replaces keeps its values through it and the rebuild after
// that reuses its storage; a rebuild that fails, early or in the fit, leaves
// the model in force as it was.
func TestModelOutlivesTheNextRebuild(t *testing.T) {
	const m, l = 12, 5
	rng := rand.New(rand.NewSource(44))
	first, means := gaussianSketches(rng, m, l)
	second, _ := gaussianSketches(rng, m, l)
	det, err := NewDetector(DetectorConfig{NumFlows: m, WindowLen: 64, SketchLen: l, Alpha: 0.01, FixedRank: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.RebuildModel(first, means, 1); err != nil {
		t.Fatal(err)
	}
	a := det.Model()
	want := valuesOf(a)
	if err := det.RebuildModel(second, means, 2); err != nil {
		t.Fatal(err)
	}
	b := det.Model()
	if b == a || !reflect.DeepEqual(valuesOf(a), want) {
		t.Fatal("the rebuild that replaced a model wrote into it")
	}

	inForce := valuesOf(b)
	bad := slices.Clone(means)
	bad[0] = math.Inf(1)
	if err := det.RebuildModel(second, bad, 3); !errors.Is(err, ErrInput) {
		t.Fatalf("a non-finite mean: err = %v", err)
	}
	overflow := make([][]float64, m)
	for j := range overflow {
		overflow[j] = make([]float64, l)
		for k := range overflow[j] {
			overflow[j][k] = 1e300
		}
	}
	if err := det.RebuildModel(overflow, means, 4); err == nil {
		t.Fatal("an overflowing Gram rebuilt")
	}
	if det.Model() != b || !reflect.DeepEqual(valuesOf(b), inForce) {
		t.Fatal("a failed rebuild changed the model in force")
	}

	if err := det.RebuildModel(first, means, 5); err != nil {
		t.Fatal(err)
	}
	if det.Model() != a || !reflect.DeepEqual(valuesOf(a), want) {
		t.Fatal("the rebuild after the next did not rebuild the first model in its storage")
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

// TestIdentifyAllocatesOnlyItsResult: the pursuit's centred residual,
// signature energies, working residuals, signature Gram and least-squares
// solve live in storage the detector keeps, so an Identify that names three
// culprits at fed-wide's m = 144 allocates only the Identification and its
// culprit slice (64 + 80 bytes after size-class rounding).
func TestIdentifyAllocatesOnlyItsResult(t *testing.T) {
	const m, l, calls = 144, 100, 50
	sketches, means := gaussianSketches(rand.New(rand.NewSource(43)), m, l)
	det, err := NewDetector(DetectorConfig{NumFlows: m, WindowLen: 4032, SketchLen: l, Alpha: 0.01, FixedRank: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.RebuildModel(sketches, means, 0); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m)
	x[5], x[70], x[140] = 400, -300, 200
	id, err := det.Identify(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(id.Flows) != 3 {
		t.Fatalf("identified %d flows (%v), want the 3 injected", len(id.Flows), id.Flows)
	}
	before := totalAlloc()
	for i := 0; i < calls; i++ {
		if _, err := det.Identify(x, 0); err != nil {
			t.Fatal(err)
		}
	}
	if per := (totalAlloc() - before) / calls; per > 256 {
		t.Fatalf("Identify allocates %d bytes per call, want at most 256", per)
	}
}
