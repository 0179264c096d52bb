package oracle

import (
	"fmt"
	"log/slog"

	"streampca/internal/core"
	"streampca/internal/obs"
	"streampca/internal/randproj"
)

// CheckerConfig parameterizes a sampling Checker embedded in a daemon.
type CheckerConfig struct {
	// Every samples one full oracle pass out of every Every intervals; must
	// be ≥ 1. The shadow state (exact windows) is maintained on every
	// interval regardless — sampling only gates the check itself.
	Every int
	// WindowLen is n.
	WindowLen int
	// Alpha is the detector's false-alarm rate (NOC side; ignored by the
	// monitor side).
	Alpha float64
	// Gen is the shared projection generator (monitor side; the NOC side
	// only needs l and may leave Gen nil and set SketchLen instead).
	Gen *randproj.Generator
	// SketchLen is l for the spectral checks' EffectiveEpsilon when Gen is
	// nil; ignored otherwise.
	SketchLen int
	// NumFlows is the per-daemon flow count: w assigned flows for a monitor,
	// m network-wide flows for the NOC.
	NumFlows int
	// Component names the daemon for metrics ("monitor" or "noc").
	Component string
	// Log receives one structured warning per violation; nil disables.
	Log *slog.Logger
	// Reg receives the oracle metrics; nil disables.
	Reg *obs.Registry
}

// Checker maintains exact shadow state alongside a running daemon and
// periodically differentially validates the streaming pipeline against it.
// It is not safe for concurrent use; callers hold the same lock that guards
// the state being checked.
type Checker struct {
	cfg     CheckerConfig
	log     *slog.Logger
	windows []*Window     // monitor side: one exact window per assigned flow
	vectors *VectorWindow // NOC side: recent network-wide vectors

	maxRelErr  float64
	checks     *obs.Counter
	violations *obs.Counter
	maxErr     *obs.Gauge
}

// NewChecker validates cfg and allocates the shadow state for one daemon
// side: monitors get per-flow exact windows, the NOC a vector window.
func NewChecker(cfg CheckerConfig) (*Checker, error) {
	if cfg.Every < 1 {
		return nil, fmt.Errorf("oracle: sampling period %d, want >= 1", cfg.Every)
	}
	if cfg.WindowLen < 2 {
		return nil, fmt.Errorf("oracle: window length %d, want >= 2", cfg.WindowLen)
	}
	if cfg.NumFlows < 1 {
		return nil, fmt.Errorf("oracle: %d flows", cfg.NumFlows)
	}
	if cfg.Component == "" {
		cfg.Component = "oracle"
	}
	c := &Checker{cfg: cfg, log: cfg.Log}
	if c.log == nil {
		c.log = obs.Nop()
	}
	if cfg.Reg != nil {
		p := "streampca_" + cfg.Component
		c.checks = cfg.Reg.Counter(p+"_oracle_checks_total",
			"Oracle bound assertions evaluated by the -selfcheck differential validator.")
		c.violations = cfg.Reg.Counter(p+"_oracle_violations_total",
			"Oracle bound assertions that failed — any nonzero value is a numerical-correctness bug.")
		c.maxErr = cfg.Reg.Gauge(p+"_oracle_max_rel_err",
			"Largest oracle bound utilization (err/bound) observed so far; values near 1 warn of drift toward a violation.")
	}
	return c, nil
}

// Due reports whether interval t is a sampled one.
func (c *Checker) Due(t int64) bool {
	return t%int64(c.cfg.Every) == 0
}

// ObserveMonitor records interval t's volumes into the exact shadow windows
// and, on sampled intervals, validates every per-flow histogram of mon.
// volumes is indexed like mon's FlowIDs. The returned Result is empty on
// non-sampled intervals.
func (c *Checker) ObserveMonitor(t int64, volumes []float64, mon *core.Monitor) Result {
	if c.windows == nil {
		c.windows = make([]*Window, c.cfg.NumFlows)
		for i := range c.windows {
			c.windows[i] = NewWindow(c.cfg.WindowLen)
		}
	}
	var res Result
	if len(volumes) != len(c.windows) {
		res.Checks++
		res.Violations = append(res.Violations, Violation{
			Check: "shadow-shape", Bound: 0,
			Detail: fmt.Sprintf("%d volumes for %d shadow windows", len(volumes), len(c.windows)),
		})
		c.record(res)
		return res
	}
	for i, x := range volumes {
		c.windows[i].Push(t, x)
	}
	if !c.Due(t) || mon == nil {
		return Result{}
	}
	for i := range c.windows {
		h := mon.Histogram(i)
		if h == nil {
			continue
		}
		res.Merge(CheckHistogram(h, c.windows[i], c.cfg.Gen))
	}
	c.record(res)
	return res
}

// ObserveNOC records the completed network-wide vector of interval t and, on
// sampled intervals, validates the decision's model against the exact batch
// reference. Callers must skip degraded intervals (vectors assembled from
// cached sketches) — pushing them would poison the exact window. The second
// return is false when the check was skipped (unsampled interval, or the
// exact window was not reconstructible).
func (c *Checker) ObserveNOC(t int64, x []float64, dec core.Decision, model *core.Model) (Result, bool) {
	if c.vectors == nil {
		c.vectors = NewVectorWindow(c.cfg.WindowLen, c.cfg.NumFlows, 0)
	}
	c.vectors.Push(t, x)
	if !c.Due(t) {
		return Result{}, false
	}
	l := c.cfg.SketchLen
	if c.cfg.Gen != nil {
		l = c.cfg.Gen.SketchLen()
	}
	res, ok := CheckModel(model, dec, x, c.vectors, ModelCheckConfig{Alpha: c.cfg.Alpha, SketchLen: l})
	if ok {
		c.record(res)
	}
	return res, ok
}

// record folds one pass into the metrics and logs its violations.
func (c *Checker) record(res Result) {
	if res.MaxRelErr > c.maxRelErr {
		c.maxRelErr = res.MaxRelErr
	}
	if c.checks != nil {
		c.checks.Add(int64(res.Checks))
		c.violations.Add(int64(len(res.Violations)))
		c.maxErr.Set(c.maxRelErr)
	}
	for _, v := range res.Violations {
		c.log.Warn("oracle bound violated",
			"check", v.Check, "err", v.Err, "bound", v.Bound, "detail", v.Detail)
	}
}
