package eval

import (
	"fmt"

	"streampca/internal/core"
	"streampca/internal/noc"
	"streampca/internal/oracle"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
)

// OracleRow is the outcome of one oracle scenario: a full streaming stack
// (per-flow variance histograms plus the lazy detector) driven over the
// workload under one projection family, differentially validated against
// the exact references on sampled intervals.
type OracleRow struct {
	Dist      randproj.Distribution
	SketchLen int
	oracle.Result
}

// OracleSweep runs the oracle scenario for every projection family and
// returns one row each. Any violation marks a numerical-correctness bug in
// the pipeline (or a miscalibrated bound), not a statistical miss.
func OracleSweep(s Scenario) ([]OracleRow, error) {
	dists := []randproj.Distribution{
		randproj.Gaussian, randproj.TugOfWar, randproj.Sparse, randproj.VerySparse,
	}
	rows := make([]OracleRow, 0, len(dists))
	for _, dist := range dists {
		s.Dist = dist
		res, err := s.oracleScenario()
		if err != nil {
			return nil, fmt.Errorf("%v: %w", dist, err)
		}
		rows = append(rows, OracleRow{Dist: dist, SketchLen: s.SketchLen, Result: res})
	}
	return rows, nil
}

// oracleScenario replays the workload through a one-monitor deployment and
// merges every sampled oracle pass. It uses the same Checker type the
// -selfcheck daemons embed, so the eval exercises the production validation
// path: the monitor-side checks read the deployed monitor's own variance
// histograms, the NOC-side ones the model in force.
// The checkers get their own generator from the same configuration — a
// projection is a pure function of it.
func (s Scenario) oracleScenario() (oracle.Result, error) {
	var total oracle.Result
	m := s.Trace.NumFlows()
	s.Monitors = 1
	gen, err := s.params(sketch.FamilyRandProj).Generator(s.Dist)
	if err != nil {
		return total, err
	}
	checker := func(component string) (*oracle.Checker, error) {
		return oracle.NewChecker(oracle.CheckerConfig{
			Every: oracleEvery, WindowLen: s.WindowLen, Epsilon: s.Epsilon,
			Alpha: s.Alpha, Gen: gen, NumFlows: m, Component: component,
		})
	}
	monChk, err := checker("monitor")
	if err != nil {
		return total, err
	}
	nocChk, err := checker("noc")
	if err != nil {
		return total, err
	}
	_, err = s.Replay(sketch.FamilyRandProj, nil, func(d *noc.Deployment, st Step) error {
		t := int64(st.Index + 1)
		d.Monitors[0].Inspect(func(mon *core.Monitor) { total.Merge(monChk.ObserveMonitor(t, st.Volumes, mon)) })
		if res, ok := nocChk.ObserveNOC(t, st.Volumes, st.Decision.Result, d.NOC.Model()); ok {
			total.Merge(res)
		}
		return nil
	})
	return total, err
}
