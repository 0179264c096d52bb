package streampca

import (
	"errors"
	"math/rand"
	"testing"

	"streampca/internal/core"
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

// TestFacadeClusterLifecycle streams each case's trace through the facade,
// one decision per interval, and requires at least half of the injected
// intervals [from, to) flagged. Half, not one: on the clean Abilene trace two
// of the six intervals the coordinated case injects into are false alarms
// already.
func TestFacadeClusterLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		// alarms streams the case's trace (interval i+1 in row i) and
		// returns the rows that alarmed.
		alarms   func(t *testing.T) map[int]bool
		from, to int
	}{
		{
			// The NOC observes a vector the monitors never measured, so the
			// case runs on the facade's Monitor and Detector: three monitors
			// striped over 12 flows.
			name: "spike the NOC alone observes",
			alarms: func(t *testing.T) map[int]bool {
				const m, n, k = 12, 96, 3
				gen, err := NewSketchGenerator(SketchConfig{Seed: 17, SketchLen: 48, WindowLen: n})
				if err != nil {
					t.Fatal(err)
				}
				mons := make([]*Monitor, k)
				for i := range mons {
					if mons[i], err = NewMonitor(MonitorConfig{FlowIDs: []int{i, i + k, i + 2*k, i + 3*k},
						WindowLen: n, Gen: gen}); err != nil {
						t.Fatal(err)
					}
				}
				det, err := NewDetector(DetectorConfig{NumFlows: m, WindowLen: n, SketchLen: 48,
					Alpha: 0.005, FixedRank: 2})
				if err != nil {
					t.Fatal(err)
				}
				fetch := func() (core.Fetch, error) { return core.Params{NumFlows: m, SketchLen: 48}.Fetch(mons...) }
				rng := rand.New(rand.NewSource(5))
				alarmed := map[int]bool{}
				for i := range 2*n + 1 {
					observed := facadeRow(rng, m)
					row := observed
					if i == 2*n {
						observed[1] += 4e4
						observed[7] += 3e4
						row = facadeRow(rng, m)
					}
					for s, mon := range mons {
						if err := mon.Update(int64(i+1), []float64{row[s], row[s+k], row[s+2*k], row[s+3*k]}); err != nil {
							t.Fatal(err)
						}
					}
					if i+1 < n {
						continue
					}
					dec, err := det.Observe(observed, fetch)
					if err != nil {
						t.Fatal(err)
					}
					alarmed[i] = dec.Anomalous
				}
				return alarmed
			},
			from: 2 * 96, to: 2*96 + 1,
		},
		{
			// Four days of Abilene volumes, a coordinated low-profile anomaly
			// on four flows for half an hour of the last day, through a
			// deployment of nine monitors.
			name: "coordinated anomaly on the Abilene trace",
			alarms: func(t *testing.T) map[int]bool {
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
				d, err := Deploy(NOCConfig{
					Detector: DetectorConfig{
						NumFlows:  tr.NumFlows(),
						WindowLen: traffic.IntervalsPerDay5Min,
						SketchLen: 120,
						Alpha:     0.01,
						FixedRank: 6,
					},
					Seed: 42,
				}, Topology{Monitors: 9})
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				alarmed := map[int]bool{}
				for i := range tr.NumIntervals() {
					dec, err := d.Step(int64(i+1), tr.Volumes.RowView(i))
					if err != nil {
						t.Fatal(err)
					}
					alarmed[i] = dec.Result.Anomalous
				}
				return alarmed
			},
			from: 864, to: 870,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alarmed, hits := tc.alarms(t), 0
			for i := tc.from; i < tc.to; i++ {
				if alarmed[i] {
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
	if _, err := Deploy(NOCConfig{}, Topology{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("deployment: %v", err)
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
