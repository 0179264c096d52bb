package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"streampca/internal/randproj"
)

// TestMonitorUpdateDeterministic feeds the same volume stream to two
// independently built monitors and requires exactly equal sketch state: the
// state is a pure function of (config, stream).
func TestMonitorUpdateDeterministic(t *testing.T) {
	const (
		numFlows  = 90
		windowLen = 64
		intervals = 100
	)
	gen, err := randproj.NewGenerator(randproj.Config{Seed: 7, SketchLen: 20})
	if err != nil {
		t.Fatal(err)
	}
	flowIDs := make([]int, numFlows)
	for i := range flowIDs {
		flowIDs[i] = i
	}
	rng := rand.New(rand.NewSource(99))
	stream := make([][]float64, intervals)
	for i := range stream {
		stream[i] = make([]float64, numFlows)
		for j := range stream[i] {
			stream[i][j] = 100 + 10*rng.NormFloat64()
		}
	}

	run := func() *Monitor {
		mon, err := NewMonitor(MonitorConfig{
			FlowIDs:   flowIDs,
			WindowLen: windowLen,
			Gen:       gen,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, vols := range stream {
			if err := mon.Update(int64(i+1), vols); err != nil {
				t.Fatal(err)
			}
		}
		return mon
	}

	refMon, gotMon := run(), run()
	ref, got := refMon.Report(), gotMon.Report()
	if got.Interval != ref.Interval {
		t.Fatalf("interval %d != %d", got.Interval, ref.Interval)
	}
	for i := range ref.FlowIDs {
		if got.Means[i] != ref.Means[i] {
			t.Fatalf("flow %d: mean %v != %v", i, got.Means[i], ref.Means[i])
		}
		if got.Counts[i] != ref.Counts[i] {
			t.Fatalf("flow %d: count %d != %d", i, got.Counts[i], ref.Counts[i])
		}
		for k := range ref.Sketches[i] {
			if got.Sketches[i][k] != ref.Sketches[i][k] {
				t.Fatalf("flow %d sketch[%d]: %v != %v", i, k, got.Sketches[i][k], ref.Sketches[i][k])
			}
		}
	}
}

// TestMonitorUpdateErrorDeterministic: an Update error names the
// lowest-indexed failing flow.
func TestMonitorUpdateErrorDeterministic(t *testing.T) {
	gen, err := randproj.NewGenerator(randproj.Config{Seed: 7, SketchLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	flowIDs := make([]int, 70)
	for i := range flowIDs {
		flowIDs[i] = 100 + i
	}
	mon, err := NewMonitor(MonitorConfig{FlowIDs: flowIDs, WindowLen: 16, Gen: gen})
	if err != nil {
		t.Fatal(err)
	}
	vols := make([]float64, len(flowIDs))
	if err := mon.Update(5, vols); err != nil {
		t.Fatal(err)
	}
	// Not strictly increasing → every flow fails; the first is reported.
	if err := mon.Update(5, vols); err == nil || !strings.Contains(err.Error(), "flow 100:") {
		t.Fatalf("repeated interval: got %v, want an error naming flow 100", err)
	}
	vols[40], vols[12] = math.NaN(), math.Inf(1)
	if err := mon.Update(6, vols); err == nil || !strings.Contains(err.Error(), "flow 112:") {
		t.Fatalf("non-finite volumes at 12 and 40: got %v, want an error naming flow 112", err)
	}
}

// TestDetectorRebuildDeterministic: the full rebuild (Gram + eigensolver +
// rank + threshold + leading basis) must be identical between independently
// built detectors.
func TestDetectorRebuildDeterministic(t *testing.T) {
	const (
		numFlows  = 100
		sketchLen = 40
	)
	rng := rand.New(rand.NewSource(123))
	sketches := make([][]float64, numFlows)
	means := make([]float64, numFlows)
	for j := range sketches {
		sketches[j] = make([]float64, sketchLen)
		for k := range sketches[j] {
			sketches[j][k] = rng.NormFloat64() * 50
		}
		means[j] = 100 + rng.NormFloat64()
	}

	run := func() *Model {
		det, err := NewDetector(DetectorConfig{
			NumFlows:   numFlows,
			WindowLen:  256,
			SketchLen:  sketchLen,
			Alpha:      0.01,
			EnergyFrac: 0.9,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := det.RebuildModel(sketches, means, 42); err != nil {
			t.Fatal(err)
		}
		return det.Model()
	}

	ref, got := run(), run()
	if got.Rank != ref.Rank {
		t.Fatalf("rank %d != %d", got.Rank, ref.Rank)
	}
	if got.Threshold != ref.Threshold {
		t.Fatalf("threshold %v != %v", got.Threshold, ref.Threshold)
	}
	for j := range ref.Singular {
		if got.Singular[j] != ref.Singular[j] {
			t.Fatalf("singular value %d differs", j)
		}
	}
	if got.Components.Cols() != ref.Components.Cols() {
		t.Fatalf("basis width %d != %d", got.Components.Cols(), ref.Components.Cols())
	}
	for i := 0; i < numFlows; i++ {
		for j := 0; j < ref.Components.Cols(); j++ {
			if got.Components.At(i, j) != ref.Components.At(i, j) {
				t.Fatalf("component (%d,%d) differs", i, j)
			}
		}
	}
}
