package core

import (
	"fmt"
	"testing"

	"streampca/internal/traffic"
)

// TestSpikeScoredAgainstTheWindowBeforeIt: a pull leaves out the interval
// being scored (Monitor.Report), so a refresh cannot absorb a spike into
// its own normal subspace. On a day-cycle trace of 1440 intervals (m = 81,
// n = 144, l = 100, r = 6, α = 0.01, three striped monitors) ten one-interval
// spikes of 3× a flow's baseline, on ten different flows, must each alarm,
// for every trace seed and every projection seed. Clean alarms and pulls over
// the 1140 scored intervals are logged.
func TestSpikeScoredAgainstTheWindowBeforeIt(t *testing.T) {
	const intervals, firstScored, n, spikes = 1440, 300, 144, 10
	for _, traceSeed := range []int64{60, 61, 2008} {
		for projSeed := uint64(1); projSeed <= 5; projSeed++ {
			t.Run(fmt.Sprintf("trace=%d/proj=%d", traceSeed, projSeed), func(t *testing.T) {
				t.Parallel()
				tr, err := traffic.Generate(traffic.GeneratorConfig{NumIntervals: intervals, Seed: traceSeed})
				if err != nil {
					t.Fatal(err)
				}
				spiked := make(map[int]bool, spikes)
				for e := range spikes {
					row := 320 + 110*e
					if err := tr.InjectSpike(10+7*e, row, row+1, 3); err != nil {
						t.Fatal(err)
					}
					spiked[row] = true
				}
				flows, p, err := Params{NumFlows: tr.NumFlows(), WindowLen: n, SketchLen: 100, Seed: projSeed}.Stripe(3)
				if err != nil {
					t.Fatal(err)
				}
				mons := make([]*Monitor, len(flows))
				for i := range mons {
					if mons[i], err = p.NewMonitor(flows[i]); err != nil {
						t.Fatal(err)
					}
				}
				det, err := NewDetector(DetectorConfig{NumFlows: p.NumFlows, WindowLen: n, SketchLen: p.SketchLen, Alpha: 0.01, FixedRank: 6})
				if err != nil {
					t.Fatal(err)
				}
				fetch := func() (Fetch, error) { return p.Fetch(mons...) }
				var found, clean, pulls int
				for row := range intervals {
					x := tr.Volumes.RowView(row)
					if err := feed(mons, int64(row+1), x); err != nil {
						t.Fatal(err)
					}
					if row+1 < n {
						continue
					}
					dec, err := det.Observe(x, fetch)
					if err != nil {
						t.Fatal(err)
					}
					if row < firstScored {
						continue
					}
					if dec.Refreshed {
						pulls++
					}
					switch {
					case spiked[row] && dec.Anomalous:
						found++
					case dec.Anomalous:
						clean++
					}
				}
				t.Logf("spikes found %d of %d; clean alarms %d and pulls %d of %d scored intervals",
					found, spikes, clean, pulls, intervals-firstScored)
				if found != spikes {
					t.Fatalf("found %d of %d spikes", found, spikes)
				}
			})
		}
	}
}
