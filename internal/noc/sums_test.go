package noc

import (
	"fmt"
	"math"
	"testing"

	"streampca/internal/core"
	"streampca/internal/obs"
	"streampca/internal/traffic"
)

// TestPulledColumnsAreTheMonitorsBits: on whole-byte traffic, flat and
// behind three aggregators, every column ẑ and mean μ the NOC assembles
// from a pull is the owning monitor's PriorSketchInto bit for bit, though
// the columns crossed as integer sums: the pulls take under 0.6× the bytes
// of raw float columns.
func TestPulledColumnsAreTheMonitorsBits(t *testing.T) {
	const window, l, intervals = 144, 100, 40
	tr, err := traffic.Generate(traffic.GeneratorConfig{NumIntervals: window + intervals, Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	for row := window + 2; row < tr.NumIntervals(); row += 6 {
		if err := tr.InjectSpike(row%tr.NumFlows(), row, row+1, 4); err != nil {
			t.Fatal(err)
		}
	}
	m := tr.NumFlows()
	for _, aggs := range []int{0, 3} {
		t.Run(fmt.Sprintf("aggregators=%d", aggs), func(t *testing.T) {
			cfg := nocConfig()
			cfg.Detector.NumFlows, cfg.Detector.WindowLen, cfg.Detector.SketchLen = m, window, l
			cfg.Obs = obs.NewRegistry()
			topo := Topology{Monitors: 6}
			if aggs > 0 {
				topo.Aggregators, topo.Agg = aggs, testAgg
			}
			d := deploy(t, cfg, topo)
			recv := cfg.Obs.Counter("streampca_transport_bytes_total", "", obs.L("direction", "recv"))
			var pulls, lastFetches, lastBytes, quietBytes, pullBytes, quiet int64
			for i := range tr.NumIntervals() {
				dec := step(t, d, int64(i+1), tr.Volumes.RowView(i))
				_, fetches, _ := d.NOC.DetectorStats()
				received := recv.Value() - lastBytes
				lastBytes = recv.Value()
				if fetches == lastFetches {
					if !dec.Warmup {
						quiet++
						quietBytes += received
					}
					continue
				}
				lastFetches = fetches
				pulls++
				pullBytes += received
				for mon, flows := range d.Flows {
					d.Monitors[mon].Inspect(func(cm *core.Monitor) {
						for j, f := range flows {
							want, mean := cm.Histogram(j).PriorSketchInto(nil)
							got := d.NOC.fetched.Sketches[f]
							if math.Float64bits(d.NOC.fetched.Means[f]) != math.Float64bits(mean) {
								t.Fatalf("interval %d flow %d: μ %v, the monitor's %v", i+1, f, d.NOC.fetched.Means[f], mean)
							}
							for k := range want {
								if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
									t.Fatalf("interval %d flow %d: ẑ[%d] %v, the monitor's %v", i+1, f, k, got[k], want[k])
								}
							}
						}
					})
				}
			}
			if pulls < 3 || quiet == 0 {
				t.Fatalf("%d pulls and %d quiet intervals: the comparison is vacuous", pulls, quiet)
			}
			t.Logf("%d pulls, %d quiet intervals, %d and %d B received", pulls, quiet, pullBytes, quietBytes)
			// What a pull interval received beyond a quiet one is the
			// responses; raw, their columns alone are m·l·8 bytes.
			columns := float64(pullBytes)/float64(pulls) - float64(quietBytes)/float64(quiet)
			if raw := float64(m * l * 8); columns > 0.6*raw {
				t.Fatalf("a pull received %.0f B beyond a quiet interval, raw columns are %.0f B", columns, raw)
			}
		})
	}
}
