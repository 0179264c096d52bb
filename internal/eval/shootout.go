package eval

import (
	"fmt"
	"time"

	"streampca/internal/core"
	"streampca/internal/mat"
	"streampca/internal/oracle"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
)

// ShootoutConfig parameterizes the sketcher-family comparison: the same trace
// and ground truth drive randproj (the paper's pipeline; its row keeps the
// label "randproj+jacobi" from when the model build was a choice, so
// scorecards diff against recorded ones) and fd (Frequent Directions) once
// each.
type ShootoutConfig struct {
	// WindowLen, Epsilon, Alpha as in the paper.
	WindowLen int
	Epsilon   float64
	Alpha     float64
	// Seed feeds the shared projection generator.
	Seed uint64
	// SketchLen is the random-projection l.
	SketchLen int
	// FDEll is the per-monitor Frequent Directions basis budget ℓ; 0 selects
	// sketch.DefaultEll of each monitor's flow count (NumMonitors must then
	// divide the flow count evenly).
	FDEll int
	// Rank is the fixed normal-subspace size r.
	Rank int
	// NumMonitors partitions the flows round-robin, as the cluster does.
	NumMonitors int
	// Oracle enables the per-family differential validation: the randproj
	// variant runs the sampled exact-batch model oracle (the -selfcheck
	// path), the FD variant replays every monitor's centered stream and
	// asserts the deterministic ‖AᵀA−BᵀB‖₂ ≤ Δ ≤ ‖A‖²_F/ℓ guarantee.
	Oracle bool
	// OracleEvery samples one randproj model check out of this many
	// intervals; ≤ 0 selects 16.
	OracleEvery int
}

// ShootoutRow is one variant's scorecard: detection accuracy against the
// ground truth, the space one full sketch pull costs, and the measured
// retrain bill of the lazy protocol.
type ShootoutRow struct {
	// Variant is the row label: "randproj+jacobi" or "fd".
	Variant string
	Family  sketch.Family
	// SketchParam is the family's size knob: l for randproj, ℓ for fd.
	SketchParam int
	// TypeI = false alarms / true normals, TypeII = misses / true anomalies
	// (paper §VI definitions), with the raw counts backing them.
	TypeI, TypeII float64
	FalseAlarms   int
	Misses        int
	TrueNormals   int
	TrueAnomalies int
	// ThresholdUnavail counts scored intervals on which the variant was
	// blind (degenerate residual spectrum, no usable δ).
	ThresholdUnavail int
	// Retrains is the number of sketch pulls the lazy protocol issued;
	// RetrainNanos the wall time of the observations that included one
	// (fetch + model rebuild + re-evaluation).
	Retrains     int64
	RetrainNanos int64
	// SketchBytes sizes one full sketch pull at the end of the trace: every
	// float64 the monitors ship — the per-retrain network cost and the
	// NOC-side memory the model build reads.
	SketchBytes int64
	// Oracle outcome (zero unless ShootoutConfig.Oracle).
	OracleChecks     int
	OracleViolations int
	OracleMaxRelErr  float64
	OracleWorst      string
}

// Shootout runs each sketcher family over the same trace against the same
// ground truth and returns one row each, in the fixed order
// randproj+jacobi, fd.
func Shootout(volumes *mat.Matrix, truth *Truth, cfg ShootoutConfig) ([]ShootoutRow, error) {
	if truth == nil || len(truth.Ready) != volumes.Rows() {
		return nil, fmt.Errorf("%w: truth does not match the volume matrix", ErrInput)
	}
	if cfg.NumMonitors < 1 {
		return nil, fmt.Errorf("%w: %d monitors", ErrConfig, cfg.NumMonitors)
	}
	variants := []struct {
		name   string
		family sketch.Family
	}{
		{"randproj+jacobi", sketch.FamilyRandProj},
		{"fd", sketch.FamilyFD},
	}
	out := make([]ShootoutRow, 0, len(variants))
	for _, v := range variants {
		row, err := shootoutVariant(volumes, truth, cfg, v.name, v.family)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// shootoutVariant drives one in-process cluster over the trace, scoring every
// truth-ready interval and timing the refresh observations.
func shootoutVariant(volumes *mat.Matrix, truth *Truth, cfg ShootoutConfig, name string, family sketch.Family) (ShootoutRow, error) {
	m := volumes.Cols()
	row := ShootoutRow{Variant: name, Family: family}
	ccfg := core.ClusterConfig{
		NumFlows:    m,
		NumMonitors: cfg.NumMonitors,
		WindowLen:   cfg.WindowLen,
		Epsilon:     cfg.Epsilon,
		Alpha:       cfg.Alpha,
		Family:      family,
		Mode:        core.RankFixed,
		FixedRank:   cfg.Rank,
	}
	if family == sketch.FamilyFD {
		ccfg.FDEll = cfg.FDEll
		row.SketchParam = cfg.FDEll
		if row.SketchParam == 0 && cfg.NumMonitors > 0 && m%cfg.NumMonitors == 0 {
			row.SketchParam = sketch.DefaultEll(m / cfg.NumMonitors)
		}
	} else {
		ccfg.Sketch = randproj.Config{Seed: cfg.Seed, SketchLen: cfg.SketchLen, WindowLen: cfg.WindowLen}
		row.SketchParam = cfg.SketchLen
	}
	cl, err := core.NewCluster(ccfg)
	if err != nil {
		return row, err
	}

	var chk *oracle.Checker
	var ores oracle.Result
	if cfg.Oracle && family == sketch.FamilyRandProj {
		every := cfg.OracleEvery
		if every <= 0 {
			every = 16
		}
		chk, err = oracle.NewChecker(oracle.CheckerConfig{
			Every: every, WindowLen: cfg.WindowLen, Epsilon: cfg.Epsilon,
			Alpha: cfg.Alpha, SketchLen: cfg.SketchLen, NumFlows: m,
			Component: "shootout",
		})
		if err != nil {
			return row, err
		}
	}

	det := cl.Detector()
	x := make([]float64, m)
	for i := 0; i < volumes.Rows(); i++ {
		t := int64(i + 1)
		copy(x, volumes.RowView(i))
		if err := cl.Update(t, x); err != nil {
			return row, err
		}
		if !cl.Warm() {
			if chk != nil {
				chk.ObserveNOC(t, x, core.Decision{ThresholdUnavailable: true}, nil)
			}
			continue
		}
		start := time.Now()
		dec, err := det.Observe(x, cl.Fetch)
		if err != nil {
			return row, err
		}
		if dec.Refreshed {
			row.RetrainNanos += time.Since(start).Nanoseconds()
		}
		if chk != nil {
			if r, ok := chk.ObserveNOC(t, x, dec, det.Model()); ok {
				ores.Merge(r)
			}
		}
		if !truth.Ready[i] {
			continue
		}
		if dec.ThresholdUnavailable {
			row.ThresholdUnavail++
		}
		isAnomaly := truth.Anomalous[i]
		switch {
		case dec.Anomalous && !isAnomaly:
			row.FalseAlarms++
		case !dec.Anomalous && isAnomaly:
			row.Misses++
		}
		if isAnomaly {
			row.TrueAnomalies++
		} else {
			row.TrueNormals++
		}
	}

	_, fetches, _ := det.Stats()
	row.Retrains = fetches
	f, err := cl.Fetch()
	if err != nil {
		return row, err
	}
	row.SketchBytes = fetchBytes(f)
	if cfg.Oracle && family == sketch.FamilyFD {
		for _, blk := range f.Blocks {
			ores.Merge(oracle.CheckFD(volumes, blk))
		}
	}
	if cfg.Oracle {
		row.OracleChecks = ores.Checks
		row.OracleViolations = len(ores.Violations)
		row.OracleMaxRelErr = ores.MaxRelErr
		if w := ores.Worst(); w != nil {
			row.OracleWorst = w.String()
		}
	}
	if row.TrueNormals > 0 {
		row.TypeI = float64(row.FalseAlarms) / float64(row.TrueNormals)
	}
	if row.TrueAnomalies > 0 {
		row.TypeII = float64(row.Misses) / float64(row.TrueAnomalies)
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
