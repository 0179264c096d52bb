package noc

import (
	"math"
	"math/rand"
	"testing"

	"streampca/internal/core"
	"streampca/internal/sketch"
)

// TestClusterMatchesFlatDeployment: the in-process core.Cluster that
// abilene-eval scores and a flat deployment of the NOC and monitor services
// decide every interval of one trace alike — distance and threshold bit for
// bit, the alarm and the model refresh.
func TestClusterMatchesFlatDeployment(t *testing.T) {
	for _, tc := range []struct {
		name     string
		family   sketch.Family
		monitors int
	}{
		{"randproj/1", sketch.FamilyRandProj, 1},
		{"randproj/3", sketch.FamilyRandProj, 3},
		{"fd/3", sketch.FamilyFD, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, row := nocConfig(), trafficRow
			if tc.family == sketch.FamilyFD {
				cfg = fdNocConfig()
				row = func(rng *rand.Rand, _ int64) []float64 { return fdTrafficRow(rng) }
			}
			det := cfg.Detector
			dep := deploy(t, cfg, Topology{Monitors: tc.monitors})
			// The parameters the deployed monitors adopted.
			p := dep.Params
			cl, err := core.NewCluster(core.ClusterConfig{
				NumFlows: p.NumFlows, NumMonitors: tc.monitors, WindowLen: p.WindowLen,
				Epsilon: p.VHEpsilon(), Alpha: det.Alpha, Family: p.Family, SketchLen: p.SketchLen, Seed: p.Seed,
				Mode: det.Mode, FixedRank: det.FixedRank,
			})
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(71))
			var diffs, alarms, refreshes int
			for i := int64(1); i <= 256; i++ {
				x := row(rng, i)
				if i > int64(det.WindowLen) && i%29 == 0 {
					x[int(i/29)%len(x)] *= 4
				}
				got := step(t, dep, i, x)
				want, err := cl.Step(i, x)
				if err != nil {
					t.Fatalf("cluster interval %d: %v", i, err)
				}
				if i < int64(det.WindowLen) {
					continue
				}
				g := got.Result
				if math.Float64bits(g.Distance) != math.Float64bits(want.Distance) ||
					math.Float64bits(g.Threshold) != math.Float64bits(want.Threshold) ||
					g.Anomalous != want.Anomalous || g.Refreshed != want.Refreshed {
					if diffs++; diffs == 1 {
						t.Errorf("first difference, interval %d: deployment %+v, cluster %+v", i, g, want)
					}
				}
				if want.Anomalous {
					alarms++
				}
				if want.Refreshed {
					refreshes++
				}
			}
			if diffs > 0 || alarms == 0 || refreshes < 2 {
				t.Fatalf("%d intervals differ; the cluster raised %d alarms and %d refreshes", diffs, alarms, refreshes)
			}
			t.Logf("%d alarms, %d refreshes, every interval alike", alarms, refreshes)
		})
	}
}
