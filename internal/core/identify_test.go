package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"streampca/internal/anomography"
	"streampca/internal/randproj"
)

// identifyCluster builds a warmed, modeled cluster over a low-rank stream.
func identifyCluster(t *testing.T) (*Cluster, *Detector) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	n, m, k := 300, 10, 3
	x := lowRankStream(rng, n, m, k, 1)
	cl, err := NewCluster(ClusterConfig{
		NumFlows: m, NumMonitors: 2, WindowLen: n, Epsilon: 0.01, Alpha: 0.01,
		Sketch: randproj.Config{Seed: 8, SketchLen: 128}, FixedRank: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveCluster(t, cl, x)
	f, err := cl.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	det := cl.Detector()
	if err := det.RebuildModel(f.Sketches, f.Means, f.Interval); err != nil {
		t.Fatal(err)
	}
	return cl, det
}

func TestIdentify(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	base := lowRankStream(rng, 300, 10, 3, 1).Row(0)
	_, det := identifyCluster(t)

	if _, err := det.Identify([]float64{1}, 3); !errors.Is(err, ErrInput) {
		t.Fatalf("short vector: %v", err)
	}

	// A heavy two-flow injection: Identify must return exactly those flows,
	// amounts close to the injections, and push the residual under the
	// alarm threshold.
	bad := append([]float64(nil), base...)
	bad[2] += 9000
	bad[7] += 7000
	id, err := det.Identify(bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(id.Flows) != 2 {
		t.Fatalf("identified %+v, want flows 2 and 7", id.Flows)
	}
	got := map[int]float64{}
	for _, f := range id.Flows {
		got[f.Flow] = f.Amount
	}
	for flow, want := range map[int]float64{2: 9000, 7: 7000} {
		amt, ok := got[flow]
		if !ok {
			t.Fatalf("flow %d missing from %+v", flow, id.Flows)
		}
		if math.Abs(amt-want)/want > 0.05 {
			t.Fatalf("flow %d amount %g, want ≈%g", flow, amt, want)
		}
	}
	if id.Flows[0].Flow != 2 {
		t.Fatalf("heavier injection must rank first: %+v", id.Flows)
	}
	thr := det.Model().Threshold
	if id.InitialSPE <= thr {
		t.Fatalf("test premise broken: injected SPE %g under threshold %g", id.InitialSPE, thr)
	}
	if id.ResidualSPE > thr {
		t.Fatalf("pursuit stopped above the Q-threshold: %g > %g (stop %s)", id.ResidualSPE, thr, id.Stop)
	}
	if id.Stop != string(anomography.StopThreshold) {
		t.Fatalf("stop %q, want threshold", id.Stop)
	}

	// A quiet measurement identifies nothing.
	quiet, err := det.Identify(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(quiet.Flows) != 0 {
		t.Fatalf("quiet interval identified %+v", quiet.Flows)
	}
}

func TestIdentifyNoModel(t *testing.T) {
	det, err := NewDetector(DetectorConfig{NumFlows: 4, WindowLen: 8, SketchLen: 4, Alpha: 0.01, FixedRank: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Identify(make([]float64, 4), 0); !errors.Is(err, ErrNoModel) {
		t.Fatalf("no model: %v", err)
	}
}

// TestIdentifyDeterministicAcrossWorkers: model build, projection and pursuit
// are pure functions of the stream, so two independently built detectors
// must return deep-equal identifications.
func TestIdentifyDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	bad := lowRankStream(rng, 300, 10, 3, 1).Row(0)
	bad[2] += 9000
	bad[7] += 7000
	_, det1 := identifyCluster(t)
	_, det2 := identifyCluster(t)
	id1, err := det1.Identify(bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := det2.Identify(bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(id1, id2) {
		t.Fatalf("identification differs between builds:\n 1: %+v\n 2: %+v", id1, id2)
	}
}
