package main

import (
	"errors"
	"fmt"
	"time"

	"streampca/internal/agg"
	"streampca/internal/core"
	"streampca/internal/ingest"
	"streampca/internal/monitor"
	"streampca/internal/noc"
	"streampca/internal/obs"
	"streampca/internal/randproj"
	"streampca/internal/traffic"
	"streampca/internal/transport"
)

const (
	// waitTimeout is how long a decision or an alarm may take before its
	// interval counts as failed.
	waitTimeout = 5 * time.Second
	dialTimeout = 2 * time.Second
)

type decisionAt struct {
	noc.Decision
	at time.Time
}

type alarmAt struct {
	mon      int
	interval int64
	culprits int
	at       time.Time
}

// deployment is one set of real services on loopback TCP: the NOC, the
// aggregator tier when the workload has one, the monitors, and in ingest
// mode one pipeline per monitor. Services keep their defaults (Workers 0,
// no degraded policy, no tracing); every listener binds 127.0.0.1:0.
type deployment struct {
	in    *inputs
	noc   *noc.Service
	aggs  []*agg.Service
	mons  []*monitor.Service
	pipes []*ingest.Pipeline
	// regs holds every service's registry, the NOC's first; sent their
	// bytes-sent counters, read after every interval.
	regs []*obs.Registry
	sent []*obs.Counter

	// decisions and alarms carry the callbacks' results to the harness. The
	// loop is closed, so at most one interval is in flight; the slack
	// absorbs stragglers that arrive after their interval timed out.
	decisions chan decisionAt
	alarms    chan alarmAt
	// sinkDone receives each ingest sink's ReportInterval duration (or its
	// error), one value per monitor per interval; sized like alarms.
	sinkDone chan sinkResult

	local []float64
}

type sinkResult struct {
	interval int64
	took     time.Duration
	err      error
}

// deploy starts the services and waits until every flow is claimed.
func deploy(in *inputs) (_ *deployment, err error) {
	w, m := in.spec, in.numFlows()
	d := &deployment{
		in:        in,
		decisions: make(chan decisionAt, 64),
		alarms:    make(chan alarmAt, 64*w.monitors),
		sinkDone:  make(chan sinkResult, 64*w.monitors),
	}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	newReg := func() *obs.Registry {
		r := obs.NewRegistry()
		d.regs = append(d.regs, r)
		d.sent = append(d.sent, r.Counter("streampca_transport_bytes_total", "", obs.L("direction", "sent")))
		return r
	}

	d.noc, err = noc.New(noc.Config{
		Detector: core.DetectorConfig{
			Family:    w.family,
			NumFlows:  m,
			WindowLen: w.window,
			SketchLen: in.sketchParam,
			Alpha:     alpha,
			Mode:      core.RankFixed,
			FixedRank: fixedRank,
		},
		Seed:       projSeed,
		OnDecision: func(dec noc.Decision) { d.decisions <- decisionAt{dec, time.Now()} },
		Obs:        newReg(),
	})
	if err != nil {
		return nil, fmt.Errorf("noc: %w", err)
	}
	if err := d.noc.Serve("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("noc serve: %w", err)
	}

	upstream := make([]string, w.monitors)
	for i := range upstream {
		upstream[i] = d.noc.Addr()
	}
	for a := 0; a < w.aggs; a++ {
		svc, err := agg.New(agg.Config{
			ID:        aggID(a),
			Family:    w.family,
			NumFlows:  m,
			WindowLen: w.window,
			SketchLen: in.sketchParam,
			Seed:      projSeed,
			Obs:       newReg(),
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", aggID(a), err)
		}
		d.aggs = append(d.aggs, svc)
		if err := svc.Serve("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("%s serve: %w", aggID(a), err)
		}
		if err := svc.ConnectNOC(d.noc.Addr(), dialTimeout); err != nil {
			return nil, fmt.Errorf("%s: %w", aggID(a), err)
		}
	}
	for i, a := range in.place {
		upstream[i] = d.aggs[a].Addr()
	}

	for i := 0; i < w.monitors; i++ {
		i := i
		svc, err := monitor.New(monitor.Config{
			ID:        monitorID(i),
			Family:    w.family,
			FlowIDs:   in.assign[i],
			WindowLen: w.window,
			Epsilon:   epsilon,
			Sketch:    randproj.Config{Seed: projSeed, SketchLen: sketchLen, WindowLen: w.window},
			FDEll:     in.sketchParam,
			OnAlarm: func(a transport.Alarm) {
				d.alarms <- alarmAt{mon: i, interval: a.Interval, culprits: len(a.Identified), at: time.Now()}
			},
			Obs: newReg(),
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", monitorID(i), err)
		}
		d.mons = append(d.mons, svc)
		if err := svc.Connect(upstream[i], dialTimeout); err != nil {
			return nil, fmt.Errorf("%s: %w", monitorID(i), err)
		}
	}

	// An aggregator re-announces its flow union upstream as monitors
	// register; traffic may flow once the unions cover every flow (the
	// re-Hello precedes any volume forward on the same connection).
	deadline := time.Now().Add(dialTimeout)
	for w.aggs > 0 {
		covered := 0
		for _, a := range d.aggs {
			covered += len(a.FlowUnion())
		}
		if covered == m {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("aggregators claim %d of %d flows after %v", covered, m, dialTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return d, nil
}

// warmup drives intervals 1..n through the deployment by direct rows. The
// last of them is the first real observation, so the measured phase starts
// with a model in force.
func (d *deployment) warmup() error {
	for t := int64(1); t < d.in.firstMeasured(); t++ {
		s := d.step(t, nil)
		if s.err != nil {
			return fmt.Errorf("warm-up interval %d: %w", t, s.err)
		}
	}
	return nil
}

// startIngest puts one ingest.Pipeline in front of every monitor, wired as
// cmd/sketchpca-monitor wires it: the sealed network-wide row is sliced to
// the monitor's flows and reported. Pipeline sequence numbers restart at 1,
// so the sink shifts them past the warm-up.
func (d *deployment) startIngest() error {
	aggr, err := traffic.NewAbileneAggregator()
	if err != nil {
		return err
	}
	offset := d.in.firstMeasured() - 1
	for i, mon := range d.mons {
		mon, flows := mon, d.in.assign[i]
		p, err := ingest.NewPipeline(ingest.Config{
			Aggregator: aggr,
			Interval:   exportIntervalSec * time.Second,
			Obs:        d.regs[1+len(d.aggs)+i],
			Sink: func(iv ingest.Interval) error {
				local := make([]float64, len(flows))
				for k, f := range flows {
					local[k] = iv.Volumes[f]
				}
				t0 := time.Now()
				err := mon.ReportInterval(offset+iv.Seq, local)
				d.sinkDone <- sinkResult{interval: offset + iv.Seq, took: time.Since(t0), err: err}
				return err
			},
		})
		if err != nil {
			return fmt.Errorf("%s ingest: %w", mon.ID(), err)
		}
		d.pipes = append(d.pipes, p)
	}
	return nil
}

// close stops every service and waits for what the services let it wait
// for. Closing a pipeline seals its open interval, whose report nobody
// awaits; sinkDone's slack absorbs it.
func (d *deployment) close() {
	for _, p := range d.pipes {
		_ = p.Close()
	}
	for _, m := range d.mons {
		_ = m.Close()
	}
	for _, a := range d.aggs {
		_ = a.Close()
	}
	if d.noc != nil {
		d.noc.Shutdown()
	}
}

// sample is what the harness observed for one interval. Durations are as
// measured; slowdown is the host's, measured just before the interval.
type sample struct {
	interval int64
	slowdown float64
	// total runs from the first input of the interval being handed in to
	// OnDecision; alarm, on alarmed intervals, to the last monitor's OnAlarm;
	// cycle until the harness may hand in the next interval.
	total, alarm, cycle time.Duration
	// report is the time spent inside monitor.Service.ReportInterval, summed
	// over the monitors; wait is from the last input handed in to OnDecision.
	report, wait time.Duration
	// cpu is the process's CPU time and wire the bytes every service sent
	// during the cycle.
	cpu      time.Duration
	wire     int64
	result   core.Decision
	culprits []int
	// alarmCulprits is the smallest culprit count any monitor's alarm carried.
	alarmCulprits int
	err           error
}

var errTimeout = errors.New("timed out")

// step hands interval t to the deployment and waits for its outcome: one
// ReportInterval per monitor, or in ingest mode (dg != nil) the datagrams
// that close t at every pipeline.
func (d *deployment) step(t int64, dg *datagrams) (s sample) {
	s.interval = t
	var bursts [][][]byte
	if dg != nil {
		bursts = make([][][]byte, len(d.pipes))
		for i := range d.pipes {
			bursts[i] = dg.burst(i, t, t == d.in.firstMeasured())
		}
	}

	t0 := time.Now()
	if dg == nil {
		for i, mon := range d.mons {
			d.local = d.in.local(i, t, d.local)
			if err := mon.ReportInterval(t, d.local); err != nil {
				s.err = err
				return s
			}
		}
		s.report = time.Since(t0)
	} else {
		for i, p := range d.pipes {
			for _, b := range bursts[i] {
				if err := p.HandleDatagram(b); err != nil {
					s.err = err
					return s
				}
			}
		}
	}
	handed := time.Now()

	dec, ok := d.awaitDecision(t)
	if !ok {
		s.err = fmt.Errorf("decision %w after %v", errTimeout, waitTimeout)
		return s
	}
	s.total = dec.at.Sub(t0)
	if s.wait = dec.at.Sub(handed); s.wait < 0 {
		s.wait = 0
	}
	s.result = dec.Result
	if dec.Identified != nil {
		for _, f := range dec.Identified.Flows {
			s.culprits = append(s.culprits, f.Flow)
		}
	}
	if dg != nil {
		// Every sink has sent t's report by now (the NOC decided on them);
		// collect their durations, skipping leftovers of a timed-out interval.
		for got := 0; got < len(d.pipes); {
			r := <-d.sinkDone
			if r.interval != t {
				continue
			}
			got++
			if r.err != nil {
				s.err = fmt.Errorf("ingest sink: %w", r.err)
			}
			s.report += r.took
		}
	}
	if dec.Result.Anomalous {
		last, culprits, ok := d.awaitAlarms(t)
		if !ok {
			s.err = fmt.Errorf("alarm broadcast %w after %v", errTimeout, waitTimeout)
			return s
		}
		s.alarm = last.Sub(t0)
		s.alarmCulprits = culprits
	}
	return s
}

func (d *deployment) awaitDecision(t int64) (decisionAt, bool) {
	timer := time.NewTimer(waitTimeout)
	defer timer.Stop()
	for {
		select {
		case dec := <-d.decisions:
			if dec.Interval == t {
				return dec, true
			}
		case <-timer.C:
			return decisionAt{}, false
		}
	}
}

// awaitAlarms waits until every monitor has received the alarm for t and
// returns when the last one did and the fewest culprits any of them carried.
func (d *deployment) awaitAlarms(t int64) (last time.Time, culprits int, ok bool) {
	timer := time.NewTimer(waitTimeout)
	defer timer.Stop()
	seen := make([]bool, len(d.mons))
	culprits = -1
	for missing := len(d.mons); missing > 0; {
		select {
		case a := <-d.alarms:
			if a.interval != t || seen[a.mon] {
				continue
			}
			seen[a.mon] = true
			missing--
			if a.at.After(last) {
				last = a.at
			}
			if culprits < 0 || a.culprits < culprits {
				culprits = a.culprits
			}
		case <-timer.C:
			return last, culprits, false
		}
	}
	return last, culprits, true
}

// bytesSent is what every service has put on the wire so far; each byte is
// counted once, by its sender.
func (d *deployment) bytesSent() int64 {
	var n int64
	for _, c := range d.sent {
		n += c.Value()
	}
	return n
}

// counters is a reading of the deployed registries.
type counters struct {
	bytesSent, msgsSent     int64
	volumeMsgs, sketchMsgs  int64
	fetchCount              int64
	fetchSeconds            float64
	fetchRetries, aggMerges int64
	nocRefreshes, nocAlarms int64
	ingestRecords           int64
	ingestDatagrams         int64
	ingestDropped           int64
}

func (d *deployment) readCounters() counters {
	c := counters{bytesSent: d.bytesSent()}
	sent := obs.L("direction", "sent")
	for _, r := range d.regs {
		for _, typ := range []string{"hello", "volume", "sketch_request", "sketch_response", "alarm", "error", "invalid"} {
			n := r.Counter("streampca_transport_messages_total", "", sent, obs.L("type", typ)).Value()
			c.msgsSent += n
			switch typ {
			case "volume":
				c.volumeMsgs += n
			case "sketch_response":
				c.sketchMsgs += n
			}
		}
		c.aggMerges += r.Counter("streampca_agg_fetches_served_total", "").Value()
		c.fetchRetries += r.Counter("streampca_agg_fetch_retries_total", "").Value()
		c.ingestRecords += r.Counter("streampca_ingest_records_total", "").Value()
		c.ingestDatagrams += r.Counter("streampca_ingest_datagrams_total", "").Value()
		for _, name := range []string{
			"streampca_ingest_decode_errors_total", "streampca_ingest_late_records_total",
			"streampca_ingest_future_drop_records_total", "streampca_ingest_unroutable_records_total",
			"streampca_ingest_seq_gap_records_total", "streampca_ingest_sink_errors_total",
		} {
			c.ingestDropped += r.Counter(name, "").Value()
		}
		for _, policy := range []string{"drop-oldest", "drop-newest"} {
			c.ingestDropped += r.Counter("streampca_ingest_dropped_records_total", "", obs.L("policy", policy)).Value()
		}
	}
	nocReg := d.regs[0]
	fetch := nocReg.Histogram("streampca_noc_fetch_seconds", "", nil).Snapshot()
	c.fetchCount, c.fetchSeconds = fetch.Count, fetch.Sum
	c.fetchRetries += nocReg.Counter("streampca_noc_fetch_retries_total", "").Value()
	c.nocRefreshes = nocReg.Counter("streampca_noc_retrains_total", "").Value()
	c.nocAlarms = nocReg.Counter("streampca_noc_alarms_total", "").Value()
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		bytesSent: c.bytesSent - o.bytesSent, msgsSent: c.msgsSent - o.msgsSent,
		volumeMsgs: c.volumeMsgs - o.volumeMsgs, sketchMsgs: c.sketchMsgs - o.sketchMsgs,
		fetchCount: c.fetchCount - o.fetchCount, fetchSeconds: c.fetchSeconds - o.fetchSeconds,
		fetchRetries: c.fetchRetries - o.fetchRetries, aggMerges: c.aggMerges - o.aggMerges,
		nocRefreshes: c.nocRefreshes - o.nocRefreshes, nocAlarms: c.nocAlarms - o.nocAlarms,
		ingestRecords: c.ingestRecords - o.ingestRecords, ingestDatagrams: c.ingestDatagrams - o.ingestDatagrams,
		ingestDropped: c.ingestDropped - o.ingestDropped,
	}
}

// deployedRun is the outcome of the deployed driver on one workload.
type deployedRun struct {
	in      *inputs
	setups  series
	samples []sample // one per interval handed in, in order
	// alloc covers the timed sections only: datagram encoding between
	// chunks is the harness's work, not the system's.
	alloc     uint64
	heapLive  uint64
	counters  counters
	truncated bool
	stateSize int64
}

// runDeployed sets the deployment up `setups` times (the last one is kept),
// then hands in the workload's N measured intervals one at a time, each
// after the previous one's outcome, until they are done or budget has
// passed. Intervals not handed in by then are not attempted.
func runDeployed(w spec, seed int64, budget time.Duration, setups int) (_ *deployedRun, err error) {
	run := &deployedRun{}
	clock := newHostClock()
	var d *deployment
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	// heapBefore is the live heap just before the kept deployment exists, so
	// heapLive is what the services hold, not the trace or earlier set-ups.
	var heapBefore uint64
	for k := 0; k < setups; k++ {
		if d != nil {
			d.close()
			d = nil
		}
		// The host's speed is sampled before, between and after the two
		// timed parts; set-up is too short to sample it more finely.
		slow := []float64{clock.slowdown()}
		t0 := time.Now()
		if run.in, err = newInputs(w, seed); err != nil {
			return nil, err
		}
		took := time.Since(t0)
		heapBefore = liveHeap()
		slow = append(slow, clock.slowdown())
		t0 = time.Now()
		if d, err = deploy(run.in); err != nil {
			return nil, err
		}
		if err = d.warmup(); err != nil {
			return nil, err
		}
		took += time.Since(t0)
		slow = append(slow, clock.slowdown())
		run.setups = append(run.setups, atRef(took, quantileOf(slow, 0.5)))
	}
	if w.recordsPerFlow > 0 {
		if err = d.startIngest(); err != nil {
			return nil, err
		}
	}

	first := run.in.firstMeasured()
	last := first + int64(w.intervals) - 1
	var dg *datagrams
	before := d.readCounters()
	start := time.Now()
	for t := first; t <= last; {
		if time.Since(start) > budget {
			run.truncated = true
			break
		}
		// One timed section: a chunk of intervals in ingest mode (its
		// datagrams encoded first), otherwise everything that is left.
		end := last
		if w.recordsPerFlow > 0 {
			if end = t + int64(w.chunk) - 1; end > last {
				end = last
			}
			dg = nil // release the previous chunk before encoding the next
			if dg, err = run.in.encode(t, end+1); err != nil {
				return nil, err
			}
		}
		alloc0 := totalAlloc()
		for ; t <= end && time.Since(start) <= budget; t++ {
			slow := clock.slowdown()
			wire0, cpu0, t0 := d.bytesSent(), cpuTime(), time.Now()
			s := d.step(t, dg)
			s.cycle, s.cpu, s.wire, s.slowdown = time.Since(t0), cpuTime()-cpu0, d.bytesSent()-wire0, slow
			run.samples = append(run.samples, s)
			if s.err != nil && !errors.Is(s.err, errTimeout) {
				return nil, fmt.Errorf("interval %d: %w", t, s.err)
			}
		}
		run.alloc += totalAlloc() - alloc0
	}
	run.counters = d.readCounters().minus(before)
	dg = nil
	if live := liveHeap(); live > heapBefore {
		run.heapLive = live - heapBefore
	}
	for _, r := range d.regs {
		run.stateSize += int64(r.Gauge("streampca_monitor_vh_buckets", "").Value())
	}
	return run, nil
}
