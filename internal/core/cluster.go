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
	// NumMonitors partitions the flows round-robin across monitors.
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
	// Sketch configures the shared random projection (Seed, SketchLen,
	// Dist, …). WindowLen is filled from the cluster's if unset. Ignored for
	// the FD family.
	Sketch randproj.Config
	// FDEll is the per-monitor Frequent Directions basis budget ℓ (FD family
	// only); 0 selects sketch.DefaultEll of each monitor's flow count. When 0,
	// every monitor must get the same flow count (round-robin guarantees it
	// only when NumMonitors divides NumFlows) or construction fails, since the
	// detector needs one shared ℓ.
	FDEll int
	// Rank configures rank selection (see DetectorConfig).
	Mode       RankMode
	FixedRank  int
	EnergyFrac float64
}

// Cluster is an in-process assembly of monitors and a NOC detector.
type Cluster struct {
	monitors []*Monitor
	detector *Detector
	// flowOwner[j] is the monitor index owning flow j; flowSlot[j] is the
	// flow's position within that monitor.
	flowOwner []int
	flowSlot  []int
	family    sketch.Family
	sketchLen int
	windowLen int
	updates   int
}

// NewCluster builds the monitors and detector.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.NumFlows < 1 {
		return nil, fmt.Errorf("%w: %d flows", ErrConfig, cfg.NumFlows)
	}
	if cfg.NumMonitors < 1 || cfg.NumMonitors > cfg.NumFlows {
		return nil, fmt.Errorf("%w: %d monitors for %d flows", ErrConfig, cfg.NumMonitors, cfg.NumFlows)
	}
	// Round-robin flow assignment.
	assign := make([][]int, cfg.NumMonitors)
	flowOwner := make([]int, cfg.NumFlows)
	flowSlot := make([]int, cfg.NumFlows)
	for j := 0; j < cfg.NumFlows; j++ {
		mIdx := j % cfg.NumMonitors
		flowOwner[j] = mIdx
		flowSlot[j] = len(assign[mIdx])
		assign[mIdx] = append(assign[mIdx], j)
	}

	// The detector needs the shared sketch parameter: l from the generator
	// for randproj, ℓ for FD.
	var gen *randproj.Generator
	var sketchLen int
	switch cfg.Family {
	case sketch.FamilyRandProj:
		sketchCfg := cfg.Sketch
		if sketchCfg.WindowLen == 0 {
			sketchCfg.WindowLen = cfg.WindowLen
		}
		var err error
		if gen, err = randproj.NewGenerator(sketchCfg); err != nil {
			return nil, fmt.Errorf("generator: %w", err)
		}
		sketchLen = gen.SketchLen()
	case sketch.FamilyFD:
		sketchLen = cfg.FDEll
		if sketchLen == 0 {
			// Defaulting ℓ from the flow count only works when every monitor
			// gets the same count; otherwise monitors would disagree on ℓ.
			if cfg.NumFlows%cfg.NumMonitors != 0 {
				return nil, fmt.Errorf("%w: fd ell must be set explicitly when %d monitors split %d flows unevenly",
					ErrConfig, cfg.NumMonitors, cfg.NumFlows)
			}
			sketchLen = sketch.DefaultEll(len(assign[0]))
		}
	default:
		return nil, fmt.Errorf("%w: unknown sketch family %d", ErrConfig, int(cfg.Family))
	}

	monitors := make([]*Monitor, cfg.NumMonitors)
	for i := range monitors {
		mon, err := NewMonitor(MonitorConfig{
			Family:    cfg.Family,
			FlowIDs:   assign[i],
			WindowLen: cfg.WindowLen,
			Epsilon:   cfg.Epsilon,
			Gen:       gen,
			FDEll:     sketchLen,
		})
		if err != nil {
			return nil, fmt.Errorf("monitor %d: %w", i, err)
		}
		monitors[i] = mon
	}

	det, err := NewDetector(DetectorConfig{
		NumFlows:   cfg.NumFlows,
		WindowLen:  cfg.WindowLen,
		SketchLen:  sketchLen,
		Alpha:      cfg.Alpha,
		Mode:       cfg.Mode,
		FixedRank:  cfg.FixedRank,
		EnergyFrac: cfg.EnergyFrac,
		Family:     cfg.Family,
	})
	if err != nil {
		return nil, fmt.Errorf("detector: %w", err)
	}
	return &Cluster{
		monitors:  monitors,
		detector:  det,
		flowOwner: flowOwner,
		flowSlot:  flowSlot,
		family:    cfg.Family,
		sketchLen: sketchLen,
		windowLen: cfg.WindowLen,
	}, nil
}

// Detector returns the NOC detector.
func (c *Cluster) Detector() *Detector { return c.detector }

// Monitors returns the cluster's monitors, in flow-assignment order (monitor
// i owns flows i, i+NumMonitors, …).
func (c *Cluster) Monitors() []*Monitor { return c.monitors }

// Update feeds interval t's full volume vector to the owning monitors.
func (c *Cluster) Update(t int64, volumes []float64) error {
	if len(volumes) != len(c.flowOwner) {
		return fmt.Errorf("%w: %d volumes for %d flows", ErrInput, len(volumes), len(c.flowOwner))
	}
	// Scatter volumes to per-monitor vectors.
	per := make([][]float64, len(c.monitors))
	for i, mon := range c.monitors {
		per[i] = make([]float64, mon.NumFlows())
	}
	for j, v := range volumes {
		per[c.flowOwner[j]][c.flowSlot[j]] = v
	}
	for i, mon := range c.monitors {
		if err := mon.Update(t, per[i]); err != nil {
			return fmt.Errorf("monitor %d: %w", i, err)
		}
	}
	c.updates++
	return nil
}

// Warm reports whether the monitors have seen a full window of intervals —
// before that, models built from partial sketches are unreliable and Step
// skips detection.
func (c *Cluster) Warm() bool { return c.updates >= c.windowLen }

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
func (c *Cluster) Fetch() (Fetch, error) {
	reports := make([]SketchReport, len(c.monitors))
	for i, mon := range c.monitors {
		reports[i] = mon.Report()
		if err := reports[i].Validate(c.sketchLen); err != nil {
			return Fetch{}, err
		}
	}
	f, err := AssembleFetch(c.family, len(c.flowOwner), reports)
	if err != nil {
		return Fetch{}, err
	}
	if c.family != sketch.FamilyFD {
		for j, s := range f.Sketches {
			if s == nil {
				return Fetch{}, fmt.Errorf("%w: no monitor reported flow %d", ErrInput, j)
			}
		}
	}
	return f, nil
}

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
