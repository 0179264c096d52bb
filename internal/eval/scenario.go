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
// runs it through Scenario.Replay, a flat noc.Deploy: the deployed services
// are the thing evaluated, internal/pca the independent reference, and this
// package holds neither a detector nor a decomposition of its own.
package eval

import (
	"errors"

	"streampca/internal/core"
	"streampca/internal/monitor"
	"streampca/internal/noc"
	"streampca/internal/obs"
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
	// Monitors is how many monitors a replay deploys; they stripe the flows
	// round-robin (core.Params.Stripe).
	Monitors int
	// RefitEvery is the retraining cadence of the fixed-cadence methods (the
	// exact reference, the Fig. 7–9 sweep); 0 → 1, the paper's cost model.
	RefitEvery int
	// Dist selects the projection family (0 → Gaussian).
	Dist randproj.Distribution
}

// params are the protocol parameters the scenario states for one sketcher
// family.
func (s Scenario) params(family sketch.Family) core.Params {
	p := core.Params{Family: family, NumFlows: s.Trace.NumFlows(), WindowLen: s.WindowLen,
		SketchLen: s.SketchLen, Epsilon: s.Epsilon, Seed: s.Seed}
	if family == sketch.FamilyFD {
		p.SketchLen = s.FDEll
	}
	return p
}

// detector is the NOC detector the scenario runs under p.
func (s Scenario) detector(p core.Params) core.DetectorConfig {
	return core.DetectorConfig{NumFlows: p.NumFlows, WindowLen: p.WindowLen, SketchLen: p.SketchLen,
		Alpha: s.Alpha, Mode: core.RankFixed, FixedRank: s.Rank, Family: p.Family}
}

// oneMonitor is the randproj sketch state of one monitor over every flow.
// Per-flow sketches do not depend on how flows are split across monitors,
// and one monitor draws each interval's projection row once.
func (s Scenario) oneMonitor() (*core.Monitor, core.Params, error) {
	flows, p, err := s.params(sketch.FamilyRandProj).Stripe(1)
	if err != nil {
		return nil, p, err
	}
	mon, err := p.NewMonitor(flows[0], s.Dist)
	return mon, p, err
}

// Step is one interval of a replay, as the driver hands it to a mode.
type Step struct {
	// Index is the trace row; the interval number is Index+1.
	Index int
	// Volumes is the row, valid during the callback.
	Volumes []float64
	// Decision is the NOC's: Warmup while the monitors have seen less than
	// a window, else Result and, on an alarm, Identified.
	Decision noc.Decision
}

// Replay is the one evaluation loop: it deploys the scenario for a family —
// a flat noc.Deploy on loopback TCP, Monitors monitors, the NOC's metrics in
// reg (nil: a private registry) — steps every trace row through it and
// hands each interval to visit (nil: none). The deployment is closed when
// Replay returns; it comes back for what a mode reads after the run (the
// NOC's counters, the monitors' last sketch state).
func (s Scenario) Replay(family sketch.Family, reg *obs.Registry, visit func(d *noc.Deployment, st Step) error) (*noc.Deployment, error) {
	p := s.params(family)
	d, err := noc.Deploy(noc.Config{
		Detector: s.detector(p), Seed: p.Seed, Epsilon: p.Epsilon, IdentifyMaxK: identifyMaxK, Obs: reg,
	}, noc.Topology{Monitors: s.Monitors, Monitor: func(_ int, c *monitor.Config) {
		// Stated, not adopted: the announcement names no projection family.
		c.Family, c.WindowLen, c.Epsilon, c.FDEll = p.Family, p.WindowLen, p.Epsilon, p.SketchLen
		c.Sketch = randproj.Config{Seed: p.Seed, SketchLen: p.SketchLen, Dist: s.Dist}
	}})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	for i := range s.Trace.NumIntervals() {
		st := Step{Index: i, Volumes: s.Trace.Volumes.RowView(i)}
		if st.Decision, err = d.Step(int64(i+1), st.Volumes); err != nil {
			return nil, err
		}
		if visit != nil {
			if err := visit(d, st); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
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
