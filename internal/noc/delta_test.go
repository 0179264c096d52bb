package noc

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"streampca/internal/agg"
	"streampca/internal/core"
	"streampca/internal/obs"
	"streampca/internal/tier"
	"streampca/internal/traffic"
)

// TestDeltaPullsAreTheMonitorsBits: flat, and behind three aggregators,
// pulls that land 1 to K+2 intervals apart go as deltas where they can,
// around a skipped interval and a monitor restart; behind three aggregators
// under the degraded policy every column goes whole. On every refresh the
// columns and means the detector reads are each monitor's SnapshotInto, bit
// for bit. (tier's tests hold the counts and R′ to it as well.)
func TestDeltaPullsAreTheMonitorsBits(t *testing.T) {
	const window, l = 32, 48
	const k = l / 20 // sketch.RandProj's K
	tr, err := traffic.Generate(traffic.GeneratorConfig{NumIntervals: 5 * window, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	// Spikes 1, 2, …, K+2 intervals apart, over and over, each refreshing
	// the model.
	var spikes []int
	for row, gap := window+4, 1; row < tr.NumIntervals(); row, gap = row+gap, gap%(k+2)+1 {
		spikes = append(spikes, row)
		if err := tr.InjectSpike((7*row)%tr.NumFlows(), row, row+1, 20); err != nil {
			t.Fatal(err)
		}
	}
	skip, restart := int64(spikes[3]+1), int64(spikes[9]+1)
	m := tr.NumFlows()
	relaying := agg.Config{Pull: tier.PullPolicy{Timeout: 2 * time.Second, Retries: 1}, Redial: tier.RedialPolicy{Enabled: true}}
	for _, topo := range []Topology{
		{Monitors: 6},
		{Monitors: 6, Aggregators: 3, Agg: relaying},
		{Monitors: 6, Aggregators: 3, Agg: testAgg},
	} {
		degraded := topo.Agg.Degraded.Enabled
		t.Run(fmt.Sprintf("aggregators=%d,degraded=%v", topo.Aggregators, degraded), func(t *testing.T) {
			cfg := nocConfig()
			cfg.Detector.NumFlows, cfg.Detector.WindowLen, cfg.Detector.SketchLen = m, window, l
			cfg.Obs = obs.NewRegistry()
			d := deploy(t, cfg, topo)
			pulled := func(form string) int64 {
				return cfg.Obs.Counter("streampca_noc_pulled_columns_total", "", obs.L("form", form)).Value()
			}
			var refreshes []int64
			for i := range tr.NumIntervals() {
				at := int64(i + 1)
				if at == skip {
					continue
				}
				if at == restart {
					if err := d.Restart(2); err != nil {
						t.Fatal(err)
					}
				}
				if dec := step(t, d, at, tr.Volumes.RowView(i)); dec.Result.Refreshed {
					refreshes = append(refreshes, at)
					checkKept(t, d, at)
				}
			}
			var gaps []int64
			for i := 1; i < len(refreshes); i++ {
				gaps = append(gaps, refreshes[i]-refreshes[i-1])
			}
			t.Logf("refreshes %v, gaps %v; columns pulled raw %d, as sums %d, as deltas %d",
				refreshes, gaps, pulled("raw"), pulled("sums"), pulled("delta"))
			if len(refreshes) < len(spikes)/2 || (pulled("delta") < int64(m)) != degraded || pulled("sums") < int64(m) {
				t.Fatalf("%d refreshes, %d delta and %d sums columns: the comparison is vacuous, or a degraded tier relayed deltas",
					len(refreshes), pulled("delta"), pulled("sums"))
			}
		})
	}
}

// checkKept requires the columns and means the detector read to be, for
// every flow, those of its monitor's SnapshotInto, bit for bit.
func checkKept(t *testing.T, d *Deployment, at int64) {
	t.Helper()
	seen := 0
	for _, mon := range d.Monitors {
		mon.Inspect(func(cm *core.Monitor) {
			var snap core.SketchReport
			cm.SnapshotInto(&snap)
			for j, f := range snap.FlowIDs {
				got, want := d.NOC.fetched.Sketches[f], snap.Sketches[j]
				if !slices.EqualFunc(got, want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) ||
					math.Float64bits(d.NOC.fetched.Means[f]) != math.Float64bits(snap.Means[j]) {
					t.Fatalf("interval %d flow %d: the detector read ẑ %v, μ %v; the monitor's are %v, %v",
						at, f, got, d.NOC.fetched.Means[f], want, snap.Means[j])
				}
				seen++
			}
		})
	}
	if seen != len(d.NOC.fetched.Sketches) {
		t.Fatalf("interval %d: the monitors hold %d columns, the detector read %d", at, seen, len(d.NOC.fetched.Sketches))
	}
}
