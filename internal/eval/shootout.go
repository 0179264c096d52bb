package eval

import (
	"fmt"

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
// ground truth (paper §VI definitions), the space one full sketch pull costs,
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
	// SketchBytes sizes one full sketch pull at the end of the trace: every
	// float64 the monitors ship — the per-retrain network cost and the
	// NOC-side memory the model build reads.
	SketchBytes int64
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
			Every: oracleEvery, WindowLen: s.WindowLen, Epsilon: s.Epsilon,
			Alpha: s.Alpha, SketchLen: s.SketchLen, NumFlows: s.Trace.NumFlows(),
			Component: "shootout",
		})
		if err != nil {
			return row, err
		}
	}
	reg := obs.NewRegistry()
	d, err := s.Replay(family, reg, func(d *noc.Deployment, st Step) error {
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
	row.SketchBytes = fetchBytes(f)
	for _, blk := range f.Blocks {
		row.Oracle.Merge(oracle.CheckFD(s.Trace.Volumes, blk))
	}
	return row, nil
}

// fetchBytes sizes one full sketch pull: 8 bytes per float64 the monitors
// ship (per-flow sketch vectors and means for randproj; basis rows, means
// and Δ per block for fd).
func fetchBytes(f core.Fetch) int64 {
	var floats int64
	if len(f.Blocks) > 0 {
		for _, b := range f.Blocks {
			floats += int64(len(b.Means)) + 1 // running means + Δ
			for _, r := range b.FDRows {
				floats += int64(len(r))
			}
		}
		return 8 * floats
	}
	for _, s := range f.Sketches {
		floats += int64(len(s))
	}
	floats += int64(len(f.Means))
	return 8 * floats
}
