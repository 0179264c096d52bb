package eval

import (
	"streampca/internal/core"
	"streampca/internal/noc"
	"streampca/internal/oracle"
	"streampca/internal/sketch"
)

// Oracle replays the workload through a one-monitor deployment and merges
// every sampled oracle pass. Any violation marks a numerical-correctness bug
// in the pipeline (or a miscalibrated bound), not a statistical miss. It
// uses the same Checker type the -selfcheck daemons embed, so the eval
// exercises the production validation path: the monitor-side checks read
// the deployed monitor's own variance histograms, the NOC-side ones the
// model in force. The checkers get their own generator from the same
// configuration — a projection is a pure function of it.
func Oracle(s Scenario) (oracle.Result, error) {
	var total oracle.Result
	m := s.Trace.NumFlows()
	s.Monitors = 1
	gen, err := s.params(sketch.FamilyRandProj).Generator()
	if err != nil {
		return total, err
	}
	checker := func(component string) (*oracle.Checker, error) {
		return oracle.NewChecker(oracle.CheckerConfig{
			Every: oracleEvery, WindowLen: s.WindowLen,
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
