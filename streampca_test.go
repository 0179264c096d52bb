package streampca

import (
	"errors"
	"math/rand"
	"testing"

	"streampca/internal/traffic"
)

// facadeRow synthesizes a structured volume vector for the facade tests.
func facadeRow(rng *rand.Rand, m int) []float64 {
	f1 := 1000 + 100*rng.NormFloat64()
	f2 := 400 + 60*rng.NormFloat64()
	row := make([]float64, m)
	for j := range row {
		row[j] = float64(j%3+1)*f1 + float64(j%2+1)*f2 + 5*rng.NormFloat64()
	}
	return row
}

// TestFacadeClusterLifecycle streams each case's trace through a Cluster, one
// Step per interval, and requires at least half of the injected intervals
// [from, to) flagged. Half, not one: on the clean Abilene trace two of the
// six intervals the coordinated case injects into are false alarms already.
func TestFacadeClusterLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ClusterConfig
		// trace returns the volumes the monitors measure (interval i+1 in
		// row i) and, where they differ, the volumes the NOC observes.
		trace    func(t *testing.T) (rows [][]float64, observed map[int][]float64)
		from, to int
	}{
		{
			name: "spike the NOC alone observes",
			cfg: ClusterConfig{
				NumFlows:    12,
				NumMonitors: 3,
				WindowLen:   96,
				Epsilon:     0.05,
				Alpha:       0.005,
				SketchLen:   48, Seed: 17,
				Mode:      RankFixed,
				FixedRank: 2,
			},
			trace: func(t *testing.T) ([][]float64, map[int][]float64) {
				rng := rand.New(rand.NewSource(5))
				rows := make([][]float64, 2*96)
				for i := range rows {
					rows[i] = facadeRow(rng, 12)
				}
				bad := facadeRow(rng, 12)
				bad[1] += 4e4
				bad[7] += 3e4
				return append(rows, facadeRow(rng, 12)), map[int][]float64{2 * 96: bad}
			},
			from: 2 * 96, to: 2*96 + 1,
		},
		{
			// Four days of Abilene volumes, a coordinated low-profile anomaly
			// on four flows for half an hour of the last day.
			name: "coordinated anomaly on the Abilene trace",
			cfg: ClusterConfig{
				NumFlows:    len(traffic.AbileneRouters) * len(traffic.AbileneRouters),
				NumMonitors: 9,
				WindowLen:   traffic.IntervalsPerDay5Min,
				Epsilon:     0.01,
				Alpha:       0.01,
				SketchLen:   120,
				Seed:        42,
				Mode:        RankFixed,
				FixedRank:   6,
			},
			trace: func(t *testing.T) ([][]float64, map[int][]float64) {
				tr, err := traffic.Generate(traffic.GeneratorConfig{
					NumIntervals: 4 * traffic.IntervalsPerDay5Min,
					Seed:         7,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.InjectCoordinated([]int{1, 12, 30, 61}, 864, 870, 0.9); err != nil {
					t.Fatal(err)
				}
				rows := make([][]float64, tr.NumIntervals())
				for i := range rows {
					rows[i] = tr.Volumes.RowView(i)
				}
				return rows, nil
			},
			from: 864, to: 870,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := NewCluster(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rows, observed := tc.trace(t)
			hits := 0
			for i, row := range rows {
				var dec Decision
				if seen, ok := observed[i]; ok {
					if err = cl.Update(int64(i+1), row); err == nil {
						dec, err = cl.Detector().Observe(seen, cl.Fetch)
					}
				} else {
					dec, err = cl.Step(int64(i+1), row)
				}
				if err != nil {
					t.Fatal(err)
				}
				if dec.Anomalous && i >= tc.from && i < tc.to {
					hits++
				}
			}
			if 2*hits < tc.to-tc.from {
				t.Fatalf("%d of %d injected intervals flagged, want at least half",
					hits, tc.to-tc.from)
			}
		})
	}
}

func TestFacadeConstructorsAndErrors(t *testing.T) {
	if _, err := NewMonitor(MonitorConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("monitor: %v", err)
	}
	if _, err := NewDetector(DetectorConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("detector: %v", err)
	}
	if _, err := NewCluster(ClusterConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("cluster: %v", err)
	}
	if _, err := NewSketchGenerator(SketchConfig{}); err == nil {
		t.Fatal("generator without sketch length must fail")
	}
	det, err := NewDetector(DetectorConfig{
		NumFlows: 2, WindowLen: 10, SketchLen: 4, Alpha: 0.01, FixedRank: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Distance([]float64{1, 2}); !errors.Is(err, ErrNoModel) {
		t.Fatalf("no model: %v", err)
	}
}

func TestFacadeDistributionConstants(t *testing.T) {
	for _, d := range []SketchDistribution{Gaussian, TugOfWar, Sparse, VerySparse} {
		if d.String() == "unknown" {
			t.Fatalf("distribution %d unnamed", int(d))
		}
	}
	for _, m := range []RankMode{RankFixed, RankThreeSigma, RankEnergy} {
		if m.String() == "unknown" {
			t.Fatalf("rank mode %d unnamed", int(m))
		}
	}
}
