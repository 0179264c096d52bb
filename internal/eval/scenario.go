// Package eval implements the paper's evaluation protocol (§VI) over the
// synthetic Abilene substrate:
//
//   - ground-truth labeling: run the exact Lakhina method (internal/pca) with
//     a fixed reference rank r* and treat its detections as the "real"
//     anomalies, exactly as the paper does;
//   - Type I / Type II error computation for the sketch-based detector
//     across (r, l) grids (Figs. 7–9);
//   - the NOC computation-overhead comparison m²·n vs m²·l (Fig. 10),
//     both as the paper's operation counts and as measured wall time;
//   - empirical checks of the error bounds (Lemmas 5–6, Theorem 2);
//   - the sketcher-family shoot-out, the identification scorecard and the
//     oracle sweep.
//
// Every mode takes one Scenario, and every mode that runs the lazy protocol
// runs it through Scenario.Replay: internal/core is the thing evaluated,
// internal/pca the independent reference, and this package holds neither a
// detector nor a decomposition of its own.
package eval

import (
	"errors"
	"time"

	"streampca/internal/core"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
	"streampca/internal/traffic"
)

// Errors returned by the package.
var (
	// ErrConfig indicates an invalid evaluation configuration.
	ErrConfig = errors.New("eval: invalid configuration")
	// ErrInput indicates structurally invalid data.
	ErrInput = errors.New("eval: invalid input")
)

// Scenario is one evaluation set-up: the trace and every knob of the
// pipeline that replays it. A mode reads the fields that apply to it (the
// exact reference ignores the sketch fields, the FD family ignores l).
type Scenario struct {
	// Trace is the workload; rows of Trace.Volumes are intervals.
	Trace *traffic.Trace
	// WindowLen is n (the paper uses two weeks of intervals).
	WindowLen int
	// Rank is the fixed normal-subspace size r — of the detector under
	// test, and r* of the exact method when it labels truth.
	Rank int
	// Alpha is the Q-statistic false-alarm rate, Epsilon the variance
	// histogram's ε (paper: 0.01 both).
	Alpha   float64
	Epsilon float64
	// Seed feeds the shared projection generator.
	Seed uint64
	// SketchLen is the random-projection l; FDEll the per-monitor Frequent
	// Directions basis budget ℓ (0 selects sketch.DefaultEll of each
	// monitor's flow count, which Monitors must then divide evenly).
	SketchLen int
	FDEll     int
	// Monitors partitions the flows round-robin, as core.Cluster does.
	Monitors int
	// RefitEvery is the retraining cadence of the fixed-cadence methods (the
	// exact reference, the Fig. 7–9 sweep); 0 → 1, the paper's cost model.
	RefitEvery int
	// Dist selects the projection family (0 → Gaussian).
	Dist randproj.Distribution
}

// clusterConfig is the in-process deployment the scenario describes for one
// sketcher family.
func (s Scenario) clusterConfig(family sketch.Family) core.ClusterConfig {
	sketchLen := s.SketchLen
	if family == sketch.FamilyFD {
		sketchLen = s.FDEll
	}
	return core.ClusterConfig{
		NumFlows:    s.Trace.NumFlows(),
		NumMonitors: s.Monitors,
		WindowLen:   s.WindowLen,
		Epsilon:     s.Epsilon,
		Alpha:       s.Alpha,
		Family:      family,
		SketchLen:   sketchLen,
		Seed:        s.Seed,
		Dist:        s.Dist,
		Mode:        core.RankFixed,
		FixedRank:   s.Rank,
	}
}

// Step is one interval of a replay, as the driver hands it to a mode.
type Step struct {
	// Index is the trace row; the interval number is Index+1.
	Index int
	// Volumes is the row, valid during the callback.
	Volumes []float64
	// Warm is false while the monitors have seen less than a window; the
	// detector is not consulted and Decision is zero.
	Warm     bool
	Decision core.Decision
	// Observe is the wall time of the detector's observation: on a
	// Decision.Refreshed interval, the fetch + rebuild + re-evaluation bill.
	Observe time.Duration
}

// Replay is the one evaluation loop: it builds the scenario's cluster for a
// family and walks the trace through it exactly as core.Cluster.Step would —
// update every monitor, then, once warm, drive the lazy detection protocol on
// the same vector — timing the observation apart from the update (which is
// why it does not call Step) and handing each interval to visit. The cluster
// comes back for what a mode reads after the run (protocol counters, one
// last sketch pull).
func (s Scenario) Replay(family sketch.Family, visit func(cl *core.Cluster, st Step) error) (*core.Cluster, error) {
	cl, err := core.NewCluster(s.clusterConfig(family))
	if err != nil {
		return nil, err
	}
	det := cl.Detector()
	for i := 0; i < s.Trace.NumIntervals(); i++ {
		st := Step{Index: i, Volumes: s.Trace.Volumes.RowView(i)}
		if err := cl.Update(int64(i+1), st.Volumes); err != nil {
			return nil, err
		}
		if st.Warm = cl.Warm(); st.Warm {
			start := time.Now()
			if st.Decision, err = det.Observe(st.Volumes, cl.Fetch); err != nil {
				return nil, err
			}
			st.Observe = time.Since(start)
		}
		if err := visit(cl, st); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// Tally is one detector's confusion count against ground truth, in the
// paper's §VI terms.
type Tally struct {
	FalseAlarms   int
	Misses        int
	TrueNormals   int
	TrueAnomalies int
}

// Add scores one labeled interval.
func (c *Tally) Add(flagged, anomalous bool) {
	switch {
	case anomalous && !flagged:
		c.Misses++
	case flagged && !anomalous:
		c.FalseAlarms++
	}
	if anomalous {
		c.TrueAnomalies++
	} else {
		c.TrueNormals++
	}
}

// TypeI is false anomalies / true normals (0 with no normals).
func (c Tally) TypeI() float64 { return rate(c.FalseAlarms, c.TrueNormals) }

// TypeII is false normals / true anomalies (0 with no anomalies).
func (c Tally) TypeII() float64 { return rate(c.Misses, c.TrueAnomalies) }

func rate(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
