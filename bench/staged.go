package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"streampca/internal/core"
	"streampca/internal/ingest"
	"streampca/internal/mat"
	"streampca/internal/obs"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
	"streampca/internal/traffic"
	"streampca/internal/transport"
)

// Stage names: one per call the staged driver makes into a layer's public
// function. pathStages lists the ones that block an interval's result, in
// the order they run; mat.* re-times the rebuild's kernels off the path.
const (
	stIngestHandle = "ingest.handle"
	stIngestSeal   = "ingest.seal_wait"
	stUpdate       = "sketch.update"
	stVolume       = "transport.volume"
	stDistance     = "core.distance"
	stRequest      = "transport.request"
	stSnapshot     = "sketch.snapshot"
	stSketch       = "transport.sketch"
	stMerge        = "agg.merge"
	stAssemble     = "noc.assemble"
	stRebuild      = "core.rebuild"
	stIdentify     = "anomography.identify"
	stAlarm        = "transport.alarm"
	stGram         = "mat.gram"
	stEigen        = "mat.eigen"
	stInterval     = "interval"
)

var pathStages = []string{
	stIngestHandle, stIngestSeal, stUpdate, stVolume, stDistance, stRequest,
	stSnapshot, stSketch, stMerge, stAssemble, stRebuild, stIdentify, stAlarm,
}

// matEvery re-times Gram and eigen on every matEvery-th rebuild: doing it on
// each would double the staged run's cost on the rebuild-bound workload.
const matEvery = 4

// span is one timed call. Start and End are nanoseconds, as measured, since
// the driver's measured phase began; Parent 0 marks an interval's root span.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Interval int64  `json:"interval"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	// Slowdown, on root spans, is the host's slowdown measured just before
	// the interval; the per-layer metrics divide the interval's spans by it.
	Slowdown float64 `json:"slowdown,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	off   bool // warm-up is not traced
}

func (tr *tracer) start(name string, interval int64, parent int) int {
	if tr.off {
		return 0
	}
	tr.spans = append(tr.spans, span{
		ID: len(tr.spans) + 1, Parent: parent, Name: name, Interval: interval,
		Start: int64(time.Since(tr.epoch)),
	})
	return len(tr.spans)
}

func (tr *tracer) end(id int) {
	if id > 0 {
		tr.spans[id-1].End = int64(time.Since(tr.epoch))
	}
}

// spanCost is the measured cost of one empty span, for trace.overhead_frac.
func spanCost() time.Duration {
	const n = 100_000
	tr := tracer{epoch: time.Now(), spans: make([]span, 0, n)}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.start(stInterval, 0, 0))
	}
	return time.Since(t0) / n
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loopConn is a transport.Conn whose two ends are one buffer, so a Send
// followed by a Recv is the envelope codec and nothing else, in one
// goroutine. (transport.PipeWithMetrics wraps net.Pipe, whose Write blocks
// until a Read on another goroutine.)
type loopConn struct {
	*transport.Conn
	sent *obs.Counter
}

type loopBuf struct{ bytes.Buffer }

func (*loopBuf) Close() error { return nil }

func newLoopConn() loopConn {
	reg := obs.NewRegistry()
	return loopConn{
		Conn: transport.NewConnWithMetrics(&loopBuf{}, transport.NewMetrics(reg)),
		sent: reg.Counter("streampca_transport_bytes_total", "", obs.L("direction", "sent")),
	}
}

// stagedDecision is the staged driver's outcome for one interval, what the
// deployed decision is checked against.
type stagedDecision struct {
	result   core.Decision
	culprits []int
}

// staged performs, in one goroutine, the hand-offs the services perform,
// each call into a layer wrapped in a span.
type staged struct {
	in    *inputs
	mons  []*core.Monitor
	det   *core.Detector
	wire  loopConn
	tr    tracer
	clock *hostClock

	pipes  []*ingest.Pipeline
	sealed []chan ingest.Interval

	// byAgg[a] lists aggregator a's monitors.
	byAgg [][]int

	x       []float64
	local   [][]float64
	rebuilt int

	// volumeBytes and sketchBytes are the encoded sizes of the measured
	// phase's VolumeReport and SketchResponse envelopes.
	volumeBytes, sketchBytes []int64
	datagrams, records       int64
	slowdowns                []float64 // one per interval replayed
}

func newStaged(in *inputs) (*staged, error) {
	w, m := in.spec, in.numFlows()
	s := &staged{in: in, wire: newLoopConn(), clock: newHostClock(), x: make([]float64, m), local: make([][]float64, w.monitors)}
	var gen *randproj.Generator
	if w.family == sketch.FamilyRandProj {
		var err error
		gen, err = randproj.NewGenerator(randproj.Config{Seed: projSeed, SketchLen: sketchLen, WindowLen: w.window})
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < w.monitors; i++ {
		mon, err := core.NewMonitor(core.MonitorConfig{
			Family: w.family, FlowIDs: in.assign[i], WindowLen: w.window,
			Epsilon: epsilon, Gen: gen, FDEll: in.sketchParam,
		})
		if err != nil {
			return nil, err
		}
		s.mons = append(s.mons, mon)
	}
	det, err := core.NewDetector(core.DetectorConfig{
		Family: w.family, NumFlows: m, WindowLen: w.window, SketchLen: in.sketchParam,
		Alpha: alpha, Mode: core.RankFixed, FixedRank: fixedRank,
	})
	if err != nil {
		return nil, err
	}
	s.det = det
	s.byAgg = make([][]int, w.aggs)
	for i, a := range in.place {
		s.byAgg[a] = append(s.byAgg[a], i)
	}
	return s, nil
}

// warmup replays intervals 1..n untraced: the NOC does nothing with the
// first n-1 and builds its first model on the n-th.
func (s *staged) warmup() error {
	s.tr.off = true
	defer func() {
		s.tr.off = false
		s.volumeBytes, s.sketchBytes = nil, nil
	}()
	for t := int64(1); t < s.in.firstMeasured(); t++ {
		for i, mon := range s.mons {
			s.local[i] = s.in.local(i, t, s.local[i])
			if err := mon.Update(t, s.local[i]); err != nil {
				return err
			}
		}
		if t < int64(s.in.spec.window) {
			continue
		}
		copy(s.x, s.in.trace.Volumes.RowView(int(t-1)))
		if _, err := s.observe(t, 0); err != nil {
			return err
		}
	}
	return nil
}

func (s *staged) startIngest() error {
	aggr, err := traffic.NewAbileneAggregator()
	if err != nil {
		return err
	}
	for range s.mons {
		ch := make(chan ingest.Interval, 2) // the sealed interval, plus the partial one Close seals
		p, err := ingest.NewPipeline(ingest.Config{
			Aggregator: aggr,
			Interval:   exportIntervalSec * time.Second,
			Sink:       func(iv ingest.Interval) error { ch <- iv; return nil },
		})
		if err != nil {
			return err
		}
		s.pipes = append(s.pipes, p)
		s.sealed = append(s.sealed, ch)
	}
	return nil
}

func (s *staged) close() {
	for _, p := range s.pipes {
		_ = p.Close()
	}
}

// relay moves one envelope through the codec and returns what the receiver
// decoded, so everything downstream sees what crossed the wire.
func (s *staged) relay(stage string, t int64, parent int, env transport.Envelope) (transport.Envelope, int64, error) {
	before := s.wire.sent.Value()
	id := s.tr.start(stage, t, parent)
	if err := s.wire.Send(env); err != nil {
		return transport.Envelope{}, 0, err
	}
	out, err := s.wire.Recv()
	s.tr.end(id)
	return out, s.wire.sent.Value() - before, err
}

// step replays interval t: inputs to volumes, volumes to the NOC's vector,
// then the lazy protocol.
func (s *staged) step(t int64, dg *datagrams) (stagedDecision, error) {
	slow := s.clock.slowdown()
	s.slowdowns = append(s.slowdowns, slow)
	root := s.tr.start(stInterval, t, 0)
	s.tr.spans[root-1].Slowdown = slow
	defer s.tr.end(root)

	for i, mon := range s.mons {
		if dg == nil {
			s.local[i] = s.in.local(i, t, s.local[i])
		} else {
			burst := dg.burst(i, t, t == s.in.firstMeasured())
			for _, b := range burst {
				s.datagrams++
				s.records += int64(binary.BigEndian.Uint16(b[2:4])) // the v5 header's record count
			}
			id := s.tr.start(stIngestHandle, t, root)
			for _, b := range burst {
				if err := s.pipes[i].HandleDatagram(b); err != nil {
					return stagedDecision{}, err
				}
			}
			s.tr.end(id)
			id = s.tr.start(stIngestSeal, t, root)
			select {
			case iv := <-s.sealed[i]:
				s.tr.end(id)
				if want := t - s.in.firstMeasured() + 1; iv.Seq != want || iv.Partial {
					return stagedDecision{}, fmt.Errorf("interval %d: %s's pipeline sealed seq %d (partial %v), want %d",
						t, monitorID(i), iv.Seq, iv.Partial, want)
				}
				s.local[i] = s.local[i][:0]
				for _, f := range s.in.assign[i] {
					s.local[i] = append(s.local[i], iv.Volumes[f])
				}
			case <-time.After(waitTimeout):
				return stagedDecision{}, fmt.Errorf("interval %d: %s's pipeline did not seal within %v", t, monitorID(i), waitTimeout)
			}
		}
		id := s.tr.start(stUpdate, t, root)
		err := mon.Update(t, s.local[i])
		s.tr.end(id)
		if err != nil {
			return stagedDecision{}, err
		}
	}

	if err := s.gatherVolumes(t, root); err != nil {
		return stagedDecision{}, err
	}
	return s.observe(t, root)
}

// gatherVolumes carries every monitor's VolumeReport to the NOC's vector,
// through the aggregator's merged forward in fed topologies.
func (s *staged) gatherVolumes(t int64, root int) error {
	report := func(id string, flows []int, vols []float64) (*transport.VolumeReport, error) {
		env, n, err := s.relay(stVolume, t, root, transport.Envelope{Volume: &transport.VolumeReport{
			MonitorID: id, Interval: t, FlowIDs: flows, Volumes: vols,
		}})
		if err != nil {
			return nil, err
		}
		s.volumeBytes = append(s.volumeBytes, n)
		return env.Volume, nil
	}
	fold := func(v *transport.VolumeReport) {
		for k, f := range v.FlowIDs {
			s.x[f] = v.Volumes[k]
		}
	}
	if s.in.spec.aggs == 0 {
		for i := range s.mons {
			v, err := report(monitorID(i), s.in.assign[i], s.local[i])
			if err != nil {
				return err
			}
			fold(v)
		}
		return nil
	}
	for a, members := range s.byAgg {
		if len(members) == 0 {
			continue
		}
		// The aggregator forwards one report over its flow union, sorted.
		type fv struct {
			flow int
			vol  float64
		}
		var union []fv
		for _, i := range members {
			v, err := report(monitorID(i), s.in.assign[i], s.local[i])
			if err != nil {
				return err
			}
			for k, f := range v.FlowIDs {
				union = append(union, fv{f, v.Volumes[k]})
			}
		}
		sort.Slice(union, func(i, j int) bool { return union[i].flow < union[j].flow })
		flows, vols := make([]int, len(union)), make([]float64, len(union))
		for k, e := range union {
			flows[k], vols[k] = e.flow, e.vol
		}
		v, err := report(aggID(a), flows, vols)
		if err != nil {
			return err
		}
		fold(v)
	}
	return nil
}

// observe is core.Detector.Observe spelled out in the detector's public
// calls, so each gets its span: distance against the model in force; on
// exceed, fetch, rebuild and distance again; identify and broadcast on alarm.
func (s *staged) observe(t int64, root int) (stagedDecision, error) {
	distance := func() (float64, error) {
		id := s.tr.start(stDistance, t, root)
		d, err := s.det.Distance(s.x)
		s.tr.end(id)
		return d, err
	}
	var out stagedDecision
	dec := &out.result
	refresh := func() error {
		f, err := s.fetch(t, root)
		if err != nil {
			return err
		}
		id := s.tr.start(stRebuild, t, root)
		err = s.det.Rebuild(f)
		s.tr.end(id)
		if err != nil {
			return err
		}
		dec.Refreshed = true
		s.rebuilt++
		if !s.tr.off && f.Sketches != nil && s.rebuilt%matEvery == 0 {
			z, err := core.AssembleSketchMatrix(f.Sketches, s.in.sketchParam)
			if err != nil {
				return err
			}
			id := s.tr.start(stGram, t, root)
			g := z.GramWorkers(0)
			s.tr.end(id)
			id = s.tr.start(stEigen, t, root)
			_, err = mat.SymEigenWorkers(g, 0)
			s.tr.end(id)
			if err != nil {
				return err
			}
		}
		return nil
	}
	// evaluate fills dec from the model in force and reports whether the
	// measurement exceeds a usable threshold.
	evaluate := func() (bool, error) {
		d, err := distance()
		if err != nil {
			return false, err
		}
		model := s.det.Model()
		dec.Distance, dec.Threshold = d, model.Threshold
		dec.ThresholdUnavailable = model.ThresholdUnavailable
		return !model.ThresholdUnavailable && d > model.Threshold, nil
	}

	if !s.det.HasModel() {
		if err := refresh(); err != nil {
			return out, err
		}
	}
	exceeds, err := evaluate()
	if err != nil {
		return out, err
	}
	dec.StaleDistance = dec.Distance
	if (exceeds || dec.ThresholdUnavailable) && !dec.Refreshed {
		if err := refresh(); err != nil {
			return out, err
		}
		if exceeds, err = evaluate(); err != nil {
			return out, err
		}
	}
	if !exceeds {
		return out, nil
	}
	dec.Anomalous = true

	id := s.tr.start(stIdentify, t, root)
	ident, err := s.det.Identify(s.x, 0)
	s.tr.end(id)
	if err != nil {
		return out, err
	}
	alarm := transport.Alarm{Interval: t, Distance: dec.Distance, Threshold: dec.Threshold}
	for _, f := range ident.Flows {
		out.culprits = append(out.culprits, f.Flow)
		alarm.Identified = append(alarm.Identified, transport.IdentifiedFlow{Flow: f.Flow, Amount: f.Amount, Confidence: f.Confidence})
	}
	return out, s.broadcast(t, root, alarm)
}

// broadcast carries the alarm to every monitor, relayed by the aggregators
// in fed topologies.
func (s *staged) broadcast(t int64, root int, alarm transport.Alarm) error {
	send := func() error {
		_, _, err := s.relay(stAlarm, t, root, transport.Envelope{Alarm: &alarm})
		return err
	}
	if s.in.spec.aggs == 0 {
		for range s.mons {
			if err := send(); err != nil {
				return err
			}
		}
		return nil
	}
	for _, members := range s.byAgg {
		for hop := 0; hop < 1+len(members); hop++ { // NOC to aggregator, then to each of its monitors
			if err := send(); err != nil {
				return err
			}
		}
	}
	return nil
}

// fetch is one sketch pull: a request to every registrant, each monitor's
// snapshot back through the codec, merged per shard in fed topologies, and
// folded into a core.Fetch the way the NOC's fetch round folds responses.
func (s *staged) fetch(t int64, root int) (core.Fetch, error) {
	request := func() error {
		_, _, err := s.relay(stRequest, t, root, transport.Envelope{Request: &transport.SketchRequest{RequestID: uint64(t)}})
		return err
	}
	respond := func(id string, rep core.SketchReport) (core.SketchReport, error) {
		env, n, err := s.relay(stSketch, t, root, transport.Envelope{Response: &transport.SketchResponse{
			RequestID: uint64(t), MonitorID: id, Report: rep,
		}})
		if err != nil {
			return core.SketchReport{}, err
		}
		s.sketchBytes = append(s.sketchBytes, n)
		return env.Response.Report, nil
	}
	pull := func(i int) (core.SketchReport, error) {
		if err := request(); err != nil {
			return core.SketchReport{}, err
		}
		id := s.tr.start(stSnapshot, t, root)
		rep := s.mons[i].Report()
		s.tr.end(id)
		return respond(monitorID(i), rep)
	}

	var reports []core.SketchReport
	if s.in.spec.aggs == 0 {
		for i := range s.mons {
			rep, err := pull(i)
			if err != nil {
				return core.Fetch{}, err
			}
			reports = append(reports, rep)
		}
	}
	for a, members := range s.byAgg {
		if len(members) == 0 {
			continue
		}
		if err := request(); err != nil {
			return core.Fetch{}, err
		}
		snaps := make([]sketch.Snapshot, 0, len(members))
		for _, i := range members {
			rep, err := pull(i)
			if err != nil {
				return core.Fetch{}, err
			}
			snaps = append(snaps, rep)
		}
		id := s.tr.start(stMerge, t, root)
		merged, err := sketch.Merge(snaps, s.in.sketchParam, 0)
		s.tr.end(id)
		if err != nil {
			return core.Fetch{}, err
		}
		rep, err := respond(aggID(a), merged)
		if err != nil {
			return core.Fetch{}, err
		}
		reports = append(reports, rep)
	}

	id := s.tr.start(stAssemble, t, root)
	defer s.tr.end(id)
	m := s.in.numFlows()
	f := core.Fetch{}
	fd := s.in.spec.family == sketch.FamilyFD
	if !fd {
		f.Sketches, f.Means = make([][]float64, m), make([]float64, m)
	}
	for i := range reports {
		rep := &reports[i]
		if err := rep.Validate(s.in.sketchParam); err != nil {
			return core.Fetch{}, err
		}
		if rep.Interval > f.Interval {
			f.Interval = rep.Interval
		}
		if fd {
			f.Blocks = append(f.Blocks, *rep)
			continue
		}
		for k, flow := range rep.FlowIDs {
			f.Sketches[flow], f.Means[flow] = rep.Sketches[k], rep.Means[k]
		}
	}
	// FD blocks enter the model in ascending order of their smallest flow.
	sort.Slice(f.Blocks, func(i, j int) bool { return minFlowID(f.Blocks[i].FlowIDs) < minFlowID(f.Blocks[j].FlowIDs) })
	return f, nil
}

func minFlowID(ids []int) int {
	min := ids[0]
	for _, id := range ids[1:] {
		if id < min {
			min = id
		}
	}
	return min
}

// stagedRun is the outcome of the staged driver on one workload.
type stagedRun struct {
	decisions []stagedDecision // one per interval replayed, in order
	spans     []span
	truncated bool

	volumeBytes, sketchBytes []int64
	datagrams, records       int64
	slowdowns                []float64
}

// runStaged replays the first `intervals` measured intervals of in (those
// the deployed run handed in) and stops early, flagged, if budget passes.
func runStaged(in *inputs, intervals int, budget time.Duration) (*stagedRun, error) {
	s, err := newStaged(in)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if err := s.warmup(); err != nil {
		return nil, fmt.Errorf("staged warm-up: %w", err)
	}
	w := in.spec
	if w.recordsPerFlow > 0 {
		if err := s.startIngest(); err != nil {
			return nil, err
		}
	}
	run := &stagedRun{}
	first := in.firstMeasured()
	last := first + int64(intervals) - 1
	var dg *datagrams
	s.tr.epoch = time.Now()
	start := time.Now()
	for t := first; t <= last; {
		if time.Since(start) > budget {
			run.truncated = true
			break
		}
		// Same chunking as the deployed run, so both see the same datagrams.
		end := last
		if w.recordsPerFlow > 0 {
			if end = t + int64(w.chunk) - 1; end > last {
				end = last
			}
			dg = nil
			if dg, err = in.encode(t, end+1); err != nil {
				return nil, err
			}
		}
		for ; t <= end && time.Since(start) <= budget; t++ {
			dec, err := s.step(t, dg)
			if err != nil {
				return nil, fmt.Errorf("staged interval %d: %w", t, err)
			}
			run.decisions = append(run.decisions, dec)
		}
	}
	run.spans = s.tr.spans
	run.datagrams, run.records = s.datagrams, s.records
	run.volumeBytes, run.sketchBytes, run.slowdowns = s.volumeBytes, s.sketchBytes, s.slowdowns
	return run, nil
}
