package eval

import (
	"fmt"
	"math"

	"streampca/internal/core"
	"streampca/internal/noc"
	"streampca/internal/obs"
	"streampca/internal/oracle"
	"streampca/internal/sketch"
)

// onlineVariants are the sketcher families the scorecards run, in row order:
// randproj is the paper's pipeline, fd Frequent Directions.
var onlineVariants = []struct {
	name   string
	family sketch.Family
}{
	{"randproj", sketch.FamilyRandProj},
	{"fd", sketch.FamilyFD},
}

// oracleEvery samples one model check out of this many intervals in the
// shoot-out and the oracle sweep.
const oracleEvery = 16

// ShootoutRow is one variant's scorecard: detection accuracy against the
// ground truth (paper §VI definitions), the bytes a sketch pull puts on the
// wire,
// the measured retrain bill of the lazy protocol, and the family's
// differential validation.
type ShootoutRow struct {
	// Variant is the row label: "randproj" or "fd".
	Variant string
	Family  sketch.Family
	// SketchParam is the family's size knob: l for randproj, ℓ for fd.
	SketchParam int
	Tally
	// ThresholdUnavail counts scored intervals on which the variant was
	// blind (degenerate residual spectrum, no usable δ).
	ThresholdUnavail int
	// Retrains is the number of sketch pulls the lazy protocol issued;
	// RetrainNanos their wall time, sketch pull plus model rebuild, as the
	// NOC's streampca_noc_fetch_seconds and streampca_noc_retrain_seconds
	// sum it.
	Retrains     int64
	RetrainNanos int64
	// PullBytes is what the NOC's transport received on an average scored
	// interval that pulled sketches (Received): the per-retrain network
	// cost.
	PullBytes int64
	// Oracle is the family's differential validation: the randproj variant
	// runs the sampled exact-batch model oracle (the -selfcheck path), the
	// FD variant replays every monitor's centered stream and asserts the
	// deterministic ‖AᵀA−BᵀB‖₂ ≤ Δ ≤ ‖A‖²_F/ℓ guarantee.
	Oracle oracle.Result
}

// Shootout runs each sketcher family over the scenario's trace against the
// same ground truth and returns one row each, in the fixed order randproj,
// fd.
func Shootout(s Scenario, truth *Truth) ([]ShootoutRow, error) {
	if truth == nil || len(truth.Ready) != s.Trace.NumIntervals() {
		return nil, fmt.Errorf("%w: truth does not match the volume matrix", ErrInput)
	}
	if s.Monitors < 1 {
		return nil, fmt.Errorf("%w: %d monitors", ErrConfig, s.Monitors)
	}
	out := make([]ShootoutRow, 0, len(onlineVariants))
	for _, v := range onlineVariants {
		row, err := s.shootoutVariant(truth, v.name, v.family)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// shootoutVariant replays the trace through one family's deployment, scoring
// every truth-ready interval, and reads the refresh bill off the NOC's
// instruments.
func (s Scenario) shootoutVariant(truth *Truth, name string, family sketch.Family) (ShootoutRow, error) {
	row := ShootoutRow{Variant: name, Family: family}
	var chk *oracle.Checker
	if family == sketch.FamilyRandProj {
		var err error
		chk, err = oracle.NewChecker(oracle.CheckerConfig{
			Every: oracleEvery, WindowLen: s.WindowLen,
			Alpha: s.Alpha, SketchLen: s.SketchLen, NumFlows: s.Trace.NumFlows(),
			Component: "shootout",
		})
		if err != nil {
			return row, err
		}
	}
	reg := obs.NewRegistry()
	var received Received
	d, err := s.Replay(family, reg, func(d *noc.Deployment, st Step) error {
		received.Observe(reg, d, st)
		dec := st.Decision.Result
		if chk != nil {
			// Cold intervals only feed the checker's exact window: there is
			// no model yet, so nothing is checked.
			if r, ok := chk.ObserveNOC(int64(st.Index+1), st.Volumes, dec, d.NOC.Model()); ok {
				row.Oracle.Merge(r)
			}
		}
		if st.Decision.Warmup || !truth.Ready[st.Index] {
			return nil
		}
		if dec.ThresholdUnavailable {
			row.ThresholdUnavail++
		}
		row.Add(dec.Anomalous, truth.Anomalous[st.Index])
		return nil
	})
	if err != nil {
		return row, err
	}
	row.SketchParam = d.Params.SketchLen
	_, row.Retrains, _ = d.NOC.DetectorStats()
	for _, h := range []string{"streampca_noc_fetch_seconds", "streampca_noc_retrain_seconds"} {
		row.RetrainNanos += int64(reg.Histogram(h, "", nil).Snapshot().Sum * 1e9)
	}
	reports := make([]core.SketchReport, len(d.Monitors))
	for i, mon := range d.Monitors {
		reports[i] = mon.Report()
	}
	var f core.Fetch
	if err := f.Assemble(family, d.Params.NumFlows, reports); err != nil {
		return row, err
	}
	row.PullBytes = received.PerInterval(true)
	for _, blk := range f.Blocks {
		row.Oracle.Merge(oracle.CheckFD(s.Trace.Volumes, blk))
	}
	return row, nil
}

// Received splits what a deployment's NOC transport received, the
// streampca_transport_bytes_total{direction="recv"} counter of its
// registry, between the scored intervals that pulled sketches and those
// that did not. A Replay visit feeds it every step.
type Received struct {
	// Intervals and Bytes count the scored intervals and the bytes received
	// on them: [0] quiet, [1] pulled.
	Intervals, Bytes  [2]int64
	last, lastFetches int64
}

// Observe accounts the step d just took.
func (r *Received) Observe(reg *obs.Registry, d *noc.Deployment, st Step) {
	received := reg.Counter("streampca_transport_bytes_total", "", obs.L("direction", "recv")).Value()
	_, fetches, _ := d.NOC.DetectorStats()
	if !st.Decision.Warmup {
		pulled := 0
		if fetches > r.lastFetches {
			pulled = 1
		}
		r.Intervals[pulled]++
		r.Bytes[pulled] += received - r.last
	}
	r.last, r.lastFetches = received, fetches
}

// PerInterval is the mean bytes received on a pulling or a quiet scored
// interval, rounded, or 0 when there was none.
func (r *Received) PerInterval(pulled bool) int64 {
	i := 0
	if pulled {
		i = 1
	}
	if r.Intervals[i] == 0 {
		return 0
	}
	return int64(math.Round(float64(r.Bytes[i]) / float64(r.Intervals[i])))
}
