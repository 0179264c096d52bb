package core

import (
	"fmt"

	"streampca/internal/randproj"
	"streampca/internal/sketch"
)

// ClusterConfig parameterizes an in-process cluster: several monitors
// partitioning the flow space plus one NOC detector. It is the simplest way
// to run the full algorithm without the network layer, and what the
// evaluation harness uses.
type ClusterConfig struct {
	// NumFlows is m.
	NumFlows int
	// NumMonitors partitions the flows round-robin across monitors
	// (Params.Stripe).
	NumMonitors int
	// WindowLen is n.
	WindowLen int
	// Epsilon is the VH parameter ε.
	Epsilon float64
	// Alpha is the detector's false-alarm rate.
	Alpha float64
	// Family selects the sketcher implementation on every monitor; the zero
	// value is the paper's random projection.
	Family sketch.Family
	// SketchLen is the family's sketch parameter: the projection length l
	// for randproj, the per-monitor basis budget ℓ for FD. ℓ 0 selects
	// sketch.DefaultEll of each monitor's flow count; every monitor must then
	// get the same count (round-robin guarantees it only when NumMonitors
	// divides NumFlows) or construction fails, since the detector needs one
	// shared ℓ.
	SketchLen int
	// Seed and Dist are the shared projection's seed and distribution
	// (randproj only; see Params.Generator).
	Seed uint64
	Dist randproj.Distribution
	// Rank configures rank selection (see DetectorConfig).
	Mode       RankMode
	FixedRank  int
	EnergyFrac float64
}

// Params returns the protocol parameters cfg states.
func (cfg ClusterConfig) Params() Params {
	return Params{cfg.Family, cfg.NumFlows, cfg.WindowLen, cfg.SketchLen, cfg.Epsilon, cfg.Seed}
}

// Cluster is an in-process assembly of monitors and a NOC detector.
type Cluster struct {
	monitors []*Monitor
	detector *Detector
	params   Params
	updates  int
}

// NewCluster builds the monitors, striped over the flows by Params.Stripe,
// and the detector.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	assign, p, err := cfg.Params().Stripe(cfg.NumMonitors)
	if err != nil {
		return nil, err
	}
	monitors := make([]*Monitor, cfg.NumMonitors)
	for i, flows := range assign {
		if monitors[i], err = p.NewMonitor(flows, cfg.Dist); err != nil {
			return nil, fmt.Errorf("monitor %d: %w", i, err)
		}
	}

	det, err := NewDetector(DetectorConfig{
		NumFlows:   cfg.NumFlows,
		WindowLen:  cfg.WindowLen,
		SketchLen:  p.SketchLen,
		Alpha:      cfg.Alpha,
		Mode:       cfg.Mode,
		FixedRank:  cfg.FixedRank,
		EnergyFrac: cfg.EnergyFrac,
		Family:     cfg.Family,
	})
	if err != nil {
		return nil, fmt.Errorf("detector: %w", err)
	}
	return &Cluster{monitors: monitors, detector: det, params: p}, nil
}

// Params returns the protocol parameters the cluster runs, the sketch
// parameter resolved.
func (c *Cluster) Params() Params { return c.params }

// Detector returns the NOC detector.
func (c *Cluster) Detector() *Detector { return c.detector }

// Monitors returns the cluster's monitors, in flow-assignment order (monitor
// i owns flows i, i+NumMonitors, …).
func (c *Cluster) Monitors() []*Monitor { return c.monitors }

// Update feeds interval t's full volume vector to the owning monitors.
func (c *Cluster) Update(t int64, volumes []float64) error {
	if len(volumes) != c.params.NumFlows {
		return fmt.Errorf("%w: %d volumes for %d flows", ErrInput, len(volumes), c.params.NumFlows)
	}
	// Monitor i's s-th flow is i + s·k (Params.Stripe).
	k := len(c.monitors)
	for i, mon := range c.monitors {
		local := make([]float64, mon.NumFlows())
		for s := range local {
			local[s] = volumes[i+s*k]
		}
		if err := mon.Update(t, local); err != nil {
			return fmt.Errorf("monitor %d: %w", i, err)
		}
	}
	c.updates++
	return nil
}

// Warm reports whether the monitors have seen a full window of intervals —
// before that, models built from partial sketches are unreliable and Step
// skips detection.
func (c *Cluster) Warm() bool { return c.updates >= c.params.WindowLen }

// AssembleFetch turns validated sketch reports into a Fetch. For the
// randproj family it scatters them into flow-indexed Sketches and Means,
// leaving nil the flows no report covers (the caller rejects or fills those);
// for FD the reports become Blocks in sketch.CanonicalOrder, so FD model
// assembly is identical across topologies — a federated tier renames the
// registrants and rendezvous placement permutes which name fronts which
// shard, but the shards themselves are fixed. Interval is the newest
// report's. The retained slices are the reports' own.
func AssembleFetch(family sketch.Family, numFlows int, reports []SketchReport) (Fetch, error) {
	var f Fetch
	for i := range reports {
		if reports[i].Interval > f.Interval {
			f.Interval = reports[i].Interval
		}
	}
	if family == sketch.FamilyFD {
		f.Blocks = make([]SketchReport, 0, len(reports))
		for _, i := range sketch.CanonicalOrder(reports) {
			f.Blocks = append(f.Blocks, reports[i])
		}
		return f, nil
	}
	f.Sketches, f.Means = make([][]float64, numFlows), make([]float64, numFlows)
	for _, rep := range reports {
		for i, id := range rep.FlowIDs {
			if id < 0 || id >= numFlows {
				return Fetch{}, fmt.Errorf("%w: reported flow %d of %d", ErrInput, id, numFlows)
			}
			f.Sketches[id], f.Means[id] = rep.Sketches[i], rep.Means[i]
		}
	}
	return f, nil
}

// Fetch gathers every monitor's report into the in-process FetchFunc.
func (c *Cluster) Fetch() (Fetch, error) { return c.params.Fetch(c.monitors...) }

// Step runs one full interval: update all monitors with the volumes, then
// drive the lazy detection protocol on the same measurement vector. During
// warm-up (fewer than WindowLen intervals seen) detection is skipped and a
// zero Decision is returned.
func (c *Cluster) Step(t int64, volumes []float64) (Decision, error) {
	if err := c.Update(t, volumes); err != nil {
		return Decision{}, err
	}
	if !c.Warm() {
		return Decision{}, nil
	}
	return c.detector.Observe(volumes, c.Fetch)
}
