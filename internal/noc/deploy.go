package noc

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"streampca/internal/agg"
	"streampca/internal/core"
	"streampca/internal/monitor"
	"streampca/internal/tier"
)

// Topology is what Deploy starts below the NOC: the monitors of Fig. 1,
// flat or behind one tier of aggregators.
type Topology struct {
	// Aggregators is the size of the aggregator tier; 0 deploys flat.
	Aggregators int
	// Monitors is how many monitors stripe the flows (core.Params.Stripe).
	Monitors int
	// Agg configures every aggregator; Deploy names each. Protocol
	// parameters it leaves unset are adopted from the NOC.
	Agg agg.Config
	// Monitor, when set, edits monitor i's configuration after Deploy has
	// filled its ID, FlowIDs and Candidates. Protocol parameters it leaves
	// unset are adopted from the tier above.
	Monitor func(i int, c *monitor.Config)
}

// Deployment is a running deployment on loopback TCP (see Deploy).
type Deployment struct {
	NOC         *Service
	Aggregators []*agg.Service
	Monitors    []*monitor.Service
	// Params are the protocol parameters the NOC announces, an FD ℓ left
	// to default resolved; Flows[i] are monitor i's flows.
	Params core.Params
	Flows  [][]int

	topo       Topology
	candidates []string
	decisions  chan Decision
	// locals[i] holds monitor i's share of the row Report hands it, under
	// localMu[i]; timeout bounds Decision's wait.
	locals  [][]float64
	localMu []sync.Mutex
	timeout *time.Timer
}

// Deploy starts a deployment in the reference wiring order. The NOC starts
// from cfg; Deploy takes cfg.OnDecision over, and Decision reads the
// decisions. Each aggregator then dials the NOC and adopts its parameters
// before it listens and is given its peers. The monitors come last: they
// adopt too and register with the NOC (flat) or with their
// rendezvous-preferred aggregator. Deploy returns once the NOC's registrants
// claim every flow, so no interval is forwarded short of a monitor.
func Deploy(cfg Config, topo Topology) (*Deployment, error) {
	d, err := deployNOC(cfg, topo)
	if err != nil {
		return nil, err
	}
	if err := d.deployTier(d.NOC.Addr()); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// deployNOC starts a deployment's NOC; deployTier starts the rest below it.
func deployNOC(cfg Config, topo Topology) (*Deployment, error) {
	flows, p, err := cfg.params().Stripe(topo.Monitors)
	if err != nil {
		return nil, err
	}
	cfg.Detector.SketchLen = p.SketchLen
	// The queue holds what Decision has not read yet: a caller reads every
	// interval's, and 1024 leaves room for ones it skips. Past that a
	// decision is dropped rather than stall the NOC, whose Shutdown waits
	// for it. A queued decision owns a copy of its Vector.
	d := &Deployment{Params: p, Flows: flows, topo: topo, decisions: make(chan Decision, 1024),
		locals: make([][]float64, len(flows)), localMu: make([]sync.Mutex, len(flows))}
	for i, f := range flows {
		d.locals[i] = make([]float64, len(f))
	}
	cfg.OnDecision = func(dec Decision) {
		dec.Vector = slices.Clone(dec.Vector)
		select {
		case d.decisions <- dec:
		default:
		}
	}
	if d.NOC, err = New(cfg); err != nil {
		return nil, err
	}
	return d, d.NOC.Serve("127.0.0.1:0")
}

// deployTier starts the aggregators below upstream and the monitors below
// them, and waits for the NOC's registrants to claim every flow.
func (d *Deployment) deployTier(upstream string) error {
	for i := range d.topo.Aggregators {
		cfg := d.topo.Agg
		cfg.ID = fmt.Sprintf("agg-%d", i+1)
		a, err := agg.New(cfg)
		if err != nil {
			return err
		}
		d.Aggregators = append(d.Aggregators, a)
		if err = a.ConnectNOC(upstream, tier.DialTimeout); err == nil {
			err = a.Serve("127.0.0.1:0")
		}
		if err != nil {
			return err
		}
		d.candidates = append(d.candidates, a.Addr())
	}
	for _, a := range d.Aggregators {
		a.SetPeers(d.candidates, 1)
	}
	d.Monitors = make([]*monitor.Service, len(d.Flows))
	for i := range d.Monitors {
		if err := d.startMonitor(i); err != nil {
			return err
		}
	}
	return d.await(true)
}

// startMonitor starts monitor i and registers it with the NOC when flat,
// else with the first reachable aggregator in its rendezvous order.
func (d *Deployment) startMonitor(i int) error {
	cfg := monitor.Config{ID: fmt.Sprintf("mon-%c", 'a'+i), FlowIDs: d.Flows[i], Candidates: d.candidates}
	if d.topo.Monitor != nil {
		d.topo.Monitor(i, &cfg)
	}
	mon, err := monitor.New(cfg)
	if err != nil {
		return err
	}
	d.Monitors[i] = mon
	if len(d.Aggregators) == 0 {
		return mon.Connect(d.NOC.Addr(), tier.DialTimeout)
	}
	_, err = mon.Place(tier.DialTimeout)
	return err
}

// await polls until whether the NOC's registrants claim every flow is
// covered.
func (d *Deployment) await(covered bool) error {
	deadline := time.Now().Add(5 * time.Second)
	for (len(d.NOC.down.OwnedFlows()) == d.Params.NumFlows) != covered {
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: whether the registrants claim every flow never became %t", ErrCoverage, covered)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// Report has monitor i report its flows of the network-wide row as interval
// t.
func (d *Deployment) Report(i int, t int64, row []float64) error {
	d.localMu[i].Lock()
	defer d.localMu[i].Unlock()
	local := d.locals[i]
	for k, f := range d.Flows[i] {
		local[k] = row[f]
	}
	return d.Monitors[i].ReportInterval(t, local)
}

// Step has every monitor report row as interval t and returns the NOC's
// decision on it.
func (d *Deployment) Step(t int64, row []float64) (Decision, error) {
	for i, mon := range d.Monitors {
		if err := d.Report(i, t, row); err != nil {
			return Decision{}, fmt.Errorf("%s interval %d: %w", mon.ID(), t, err)
		}
	}
	return d.Decision(t)
}

// Decision waits for the NOC's decision on interval t, discarding those
// before it. One goroutine at a time reads the decisions.
func (d *Deployment) Decision(t int64) (Decision, error) {
	if d.timeout == nil {
		d.timeout = time.NewTimer(10 * time.Second)
	} else {
		d.timeout.Reset(10 * time.Second)
	}
	for {
		select {
		case dec := <-d.decisions:
			if dec.Interval != t {
				continue
			}
			if !d.timeout.Stop() {
				select {
				case <-d.timeout.C:
				default:
				}
			}
			return dec, nil
		case <-d.timeout.C:
			return Decision{}, fmt.Errorf("noc: no decision on interval %d", t)
		}
	}
}

// Restart closes monitor i and, once the NOC has seen its flows go, starts a
// fresh one under the same ID and flows, registered as the first was. It
// returns when the registrants claim every flow again.
func (d *Deployment) Restart(i int) error {
	_ = d.Monitors[i].Close()
	if err := d.await(false); err != nil {
		return err
	}
	if err := d.startMonitor(i); err != nil {
		return err
	}
	return d.await(true)
}

// Close stops the monitors, then the aggregators, then the NOC.
func (d *Deployment) Close() {
	for _, m := range d.Monitors {
		if m != nil {
			_ = m.Close()
		}
	}
	for _, a := range d.Aggregators {
		_ = a.Close()
	}
	d.NOC.Shutdown()
}
