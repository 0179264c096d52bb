package ingest

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"streampca/internal/faults"
	"streampca/internal/flow"
	"streampca/internal/obs"
	"streampca/internal/trace"
)

// Clock selects how records are assigned to intervals.
type Clock int

const (
	// ClockRecord derives the epoch from the datagram header's export
	// timestamp (UnixSecs/UnixNsecs) — deterministic, replay-friendly, the
	// default. Intervals roll when the record stream's time advances past
	// the boundary plus the lateness slack.
	ClockRecord Clock = iota
	// ClockWall assigns records to the wall-clock interval of their
	// arrival; a ticker rolls intervals even when traffic stops.
	ClockWall
)

// String returns the flag spelling.
func (c Clock) String() string {
	switch c {
	case ClockRecord:
		return "record"
	case ClockWall:
		return "wall"
	}
	return fmt.Sprintf("clock(%d)", int(c))
}

// ParseClock maps the flag spellings "record" and "wall" to a Clock.
func ParseClock(s string) (Clock, error) {
	switch s {
	case "record", "":
		return ClockRecord, nil
	case "wall":
		return ClockWall, nil
	}
	return 0, fmt.Errorf("%w: unknown clock %q (want record or wall)", ErrConfig, s)
}

// Interval is one sealed measurement interval delivered to the sink.
type Interval struct {
	// Epoch is the absolute interval index (unix time / interval length).
	Epoch int64
	// Seq is the 1-based consecutive interval number since the pipeline's
	// first sealed epoch — the monitor-facing interval index (empty epochs
	// are delivered too, so Seq never skips).
	Seq int64
	// Volumes is the network-wide OD volume row, indexed like the
	// aggregator's flow ids (length NumFlows). The pipeline reuses it once
	// the sink's next call has returned (see Config.Sink).
	Volumes []float64
	// Records is the number of flow records folded into this interval.
	Records int64
	// Partial marks an interval sealed early by shutdown drain, before its
	// lateness slack elapsed.
	Partial bool
}

// Config parameterizes a Pipeline.
type Config struct {
	// Aggregator maps record addresses to OD flow indices. It must not be
	// mutated once the pipeline runs.
	Aggregator *flow.Aggregator
	// Interval is the measurement interval length (the paper's 5-minute
	// bins). Required, ≥ 1ms.
	Interval time.Duration
	// Clock selects record-timestamp or wall-clock interval assignment.
	Clock Clock
	// Lateness is the slack for late/out-of-order records: an interval is
	// sealed only once the clock passes its end plus this slack, and
	// records older than the last sealed interval are dropped (counted).
	Lateness time.Duration
	// MaxEpochJump bounds how far ahead of the watermark a record
	// timestamp may jump (in intervals) before it is rejected as a clock
	// anomaly rather than sealing an unbounded run of empty intervals.
	// Default 64.
	MaxEpochJump int64
	// Sink receives each sealed interval, in strictly increasing Seq
	// order, from a single goroutine. Interval.Volumes stays valid only
	// until the sink's next call returns; a sink that keeps it longer
	// copies it. A Sink error is counted and logged; the pipeline keeps
	// running.
	Sink func(Interval) error
	// Faults, when non-nil, is consulted once per datagram (direction
	// "recv", type "netflow") so chaos suites can drop, delay or corrupt
	// the measurement stream. Nil costs one pointer check.
	Faults faults.Injector
	// Obs is the metrics registry; nil creates a private one.
	Obs *obs.Registry
	// Log receives structured logs; nil discards them.
	Log *slog.Logger
	// Trace, when non-nil, emits one "ingest.seal" span per delivered
	// interval (trace id trace.ForInterval(Seq)) carrying the partial and
	// lateness counters at seal time — the first hop of the interval's
	// lineage. Nil costs one pointer check per interval.
	Trace *trace.Tracer
}

// openEpoch is an epoch's accumulator in Pipeline.acc: its volume row and
// the records folded into it.
type openEpoch struct {
	row     []float64
	records int64
}

// sealed is one epoch's volume row on its way to the sink.
type sealed struct {
	epoch    int64
	row      []float64 // nil when the epoch saw no datagram
	records  int64
	partial  bool
	sealedAt time.Time
}

// sealBacklog is how many sealed intervals may wait for the sink before the
// front end stalls: a few rollovers of slack for a sink that is a network
// report, and enough that a short run of quiet epochs seals without a
// hand-off per epoch. A sink that stays slower than the interval clock fills
// it, HandleDatagram then blocks, the socket buffer fills, and the loss
// shows up as sequence gaps.
const sealBacklog = 8

// Pipeline is the ingest subsystem: decode → fold into the open epoch's row
// → seal → sink. Create with NewPipeline, feed with HandleDatagram (or a
// Collector), stop with Close — Close seals the open intervals and waits for
// the sink to take them, so no accepted record is lost.
type Pipeline struct {
	cfg         Config
	agg         *flow.Aggregator
	met         *Metrics
	log         *slog.Logger
	intervalNs  int64
	slackEpochs int64
	maxJump     int64

	// mu serializes everything after the decode: sequence tracking, the
	// watermark and seal state, the open epochs' rows, and the sends on
	// sealCh. One lock and one FIFO are the whole ordering argument: an
	// epoch's row leaves acc under the lock that folds into it, and epochs
	// enter sealCh in increasing order (DESIGN.md §12). A send may block
	// while mu is held; that is the backpressure, and the delivery goroutine
	// never takes mu, so it always drains.
	mu            sync.Mutex
	seq           SeqTracker
	started       bool
	watermark     int64
	sealedThrough int64
	closed        bool
	acc           map[int64]openEpoch // at most slack+2 at once

	// spare holds a zeroed row the sink is done with, for the next epoch's
	// accumulator: with the open epoch's row and held, three rows go round
	// while the sink keeps up. held is the row of the interval the sink took
	// last, which deliver hands back once the sink's next call returns; only
	// the delivery goroutine touches it.
	spare chan []float64
	held  []float64

	sealCh      chan sealed
	deliverDone chan struct{}
	wallStop    chan struct{}
	wallDone    chan struct{}
}

// NewPipeline validates cfg and starts the delivery goroutine and, for
// ClockWall, the ticker.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if cfg.Aggregator == nil {
		return nil, fmt.Errorf("%w: nil aggregator", ErrConfig)
	}
	if cfg.Interval < time.Millisecond {
		return nil, fmt.Errorf("%w: interval %v below 1ms", ErrConfig, cfg.Interval)
	}
	if cfg.Sink == nil {
		return nil, fmt.Errorf("%w: nil sink", ErrConfig)
	}
	if cfg.Lateness < 0 {
		return nil, fmt.Errorf("%w: negative lateness %v", ErrConfig, cfg.Lateness)
	}
	if cfg.MaxEpochJump == 0 {
		cfg.MaxEpochJump = 64
	}
	if cfg.MaxEpochJump < 1 {
		return nil, fmt.Errorf("%w: max epoch jump %d", ErrConfig, cfg.MaxEpochJump)
	}
	switch cfg.Clock {
	case ClockRecord, ClockWall:
	default:
		return nil, fmt.Errorf("%w: clock %v", ErrConfig, cfg.Clock)
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	log := cfg.Log
	if log == nil {
		log = obs.Nop()
	}
	p := &Pipeline{
		cfg:         cfg,
		agg:         cfg.Aggregator,
		met:         NewMetrics(reg),
		log:         log.With("component", "ingest"),
		intervalNs:  cfg.Interval.Nanoseconds(),
		slackEpochs: (cfg.Lateness.Nanoseconds() + cfg.Interval.Nanoseconds() - 1) / cfg.Interval.Nanoseconds(),
		maxJump:     cfg.MaxEpochJump,
		acc:         make(map[int64]openEpoch),
		spare:       make(chan []float64, 1),
		sealCh:      make(chan sealed, sealBacklog),
		deliverDone: make(chan struct{}),
	}
	go p.deliverLoop()
	if cfg.Clock == ClockWall {
		p.wallStop = make(chan struct{})
		p.wallDone = make(chan struct{})
		go p.wallLoop()
	}
	p.log.Info("ingest pipeline started",
		"interval", cfg.Interval, "lateness", cfg.Lateness, "clock", cfg.Clock)
	return p, nil
}

// Metrics exposes the pipeline's instrumentation (e.g. for tests).
func (p *Pipeline) Metrics() *Metrics { return p.met }

// HandleDatagram ingests one raw NetFlow v5 datagram. Malformed datagrams
// are counted and dropped, never fatal. The only error returns are
// ErrClosed — after Close, or when the fault injector demands a disconnect
// — which tell a collector to stop reading. Safe for concurrent use; buf
// is not retained.
func (p *Pipeline) HandleDatagram(buf []byte) error {
	if inj := p.cfg.Faults; inj != nil {
		o := inj.Decide(faults.DirRecv, "netflow")
		if o.Delay > 0 {
			time.Sleep(o.Delay)
		}
		if o.Drop {
			p.met.FaultDrops.Inc()
			return nil
		}
		if o.Disconnect {
			return ErrClosed
		}
		if o.Corrupt && len(buf) > 1 {
			// Flip the version's low byte: deterministically detectable.
			c := append([]byte(nil), buf...)
			c[1] ^= 0xFF
			buf = c
		}
	}

	// Decode and route before taking the lock, into a slab on this
	// goroutine's stack: the per-record parse and table walks of concurrent
	// callers overlap, and the locked part is the add.
	var (
		h    Header
		slab recSlab
	)
	if err := decodeRecords(buf, &h, &slab, p.agg); err != nil {
		p.met.DecodeErrors.Inc()
		return nil
	}
	count := int64(h.Count)
	var ns int64
	if p.cfg.Clock == ClockWall {
		ns = time.Now().UnixNano()
	} else {
		ns = int64(h.UnixSecs)*int64(time.Second) + int64(h.UnixNsecs)
	}
	epoch := ns / p.intervalNs

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	p.met.Datagrams.Inc()
	p.met.Records.Add(count)
	p.met.Bytes.Add(int64(len(buf)))
	if gap := p.seq.Observe(&h); gap > 0 {
		p.met.SeqGapRecords.Add(int64(gap))
	}
	if !p.started {
		// The stream starts at the first observed epoch; anything older is
		// late regardless of slack (no leading empty intervals).
		p.started = true
		p.watermark = epoch
		p.sealedThrough = epoch - 1
	}
	if epoch <= p.sealedThrough {
		p.met.LateRecords.Add(count)
		return nil
	}
	if epoch > p.watermark+p.maxJump {
		p.met.FutureDrops.Add(count)
		return nil
	}
	if epoch > p.watermark {
		p.watermark = epoch
	}
	p.sealThroughLocked(p.watermark-1-p.slackEpochs, false)
	p.foldLocked(epoch, slab.recs[:slab.n])
	return nil
}

// foldLocked adds recs to epoch's accumulator row. Records whose addresses
// matched no prefix are counted and left out; the miss allocates nothing
// either (TestIngestHotPathZeroAlloc).
func (p *Pipeline) foldLocked(epoch int64, recs []rec) {
	a, ok := p.acc[epoch]
	if !ok {
		a = openEpoch{row: p.spareRow()}
	}
	var unroutable int64
	for _, r := range recs {
		if r.flow < 0 {
			unroutable++
			continue
		}
		a.row[r.flow] += float64(r.octets)
	}
	a.records += int64(len(recs)) - unroutable
	p.acc[epoch] = a
	if unroutable > 0 {
		p.met.Unroutable.Add(unroutable)
	}
}

// sealThroughLocked hands every unsealed epoch up to and including target
// to the delivery goroutine, in order. Once an epoch is sealed the late
// check in HandleDatagram keeps records out of it, so the row it sends is
// final.
func (p *Pipeline) sealThroughLocked(target int64, partial bool) {
	if !p.started || target <= p.sealedThrough {
		return
	}
	now := time.Now()
	for e := p.sealedThrough + 1; e <= target; e++ {
		s := sealed{epoch: e, partial: partial, sealedAt: now}
		if a, ok := p.acc[e]; ok {
			s.row, s.records = a.row, a.records
			delete(p.acc, e)
		}
		p.sealCh <- s
	}
	p.sealedThrough = target
}

// spareRow returns a zero row, one the sink is done with when there is one.
func (p *Pipeline) spareRow() []float64 {
	select {
	case row := <-p.spare:
		return row
	default:
		return make([]float64, p.agg.NumFlows())
	}
}

// deliverLoop numbers the sealed epochs and calls the sink, one at a time,
// in the order they were sealed.
func (p *Pipeline) deliverLoop() {
	defer close(p.deliverDone)
	var seq int64
	for s := range p.sealCh {
		seq++
		p.deliver(seq, s)
	}
}

// deliver hands one sealed epoch to the sink as interval seq.
func (p *Pipeline) deliver(seq int64, s sealed) {
	// Attributes are built only for a span: boxing them costs allocations
	// every interval even when tracing is off.
	sp := p.cfg.Trace.Start(trace.ForInterval(seq), 0, "ingest.seal")
	if sp != nil {
		sp.SetAttr(
			trace.I("interval", seq),
			trace.I("epoch", s.epoch),
			trace.I("records", s.records),
			trace.B("partial", s.partial))
	}
	volumes := s.row
	if volumes == nil {
		volumes = p.spareRow()
	}
	iv := Interval{
		Epoch:   s.epoch,
		Seq:     seq,
		Volumes: volumes,
		Records: s.records,
		Partial: s.partial,
	}
	if err := p.cfg.Sink(iv); err != nil {
		p.met.SinkErrors.Inc()
		p.log.Warn("ingest sink rejected interval", "seq", seq, "epoch", s.epoch, "err", err)
		sp.Event("sink_error", trace.S("err", err.Error()))
	}
	// The previous row goes back now, not this one: a sink may hand the
	// interval on and read it until its next call.
	if p.held != nil {
		clear(p.held)
		select {
		case p.spare <- p.held:
		default:
		}
	}
	p.held = volumes
	p.met.EpochsSealed.Inc()
	if s.partial {
		p.met.PartialEpochs.Inc()
	}
	p.met.RolloverSeconds.Observe(time.Since(s.sealedAt).Seconds())
	if sp != nil {
		// Cumulative pipeline counters at seal time: diffing consecutive
		// seal spans localizes late arrivals to an interval.
		sp.SetAttr(
			trace.I("late_records", p.met.LateRecords.Value()),
			trace.I("future_drops", p.met.FutureDrops.Value()),
			trace.I("partial_epochs", p.met.PartialEpochs.Value()),
		)
		sp.End()
	}
}

// wallLoop rolls intervals on wall time so epochs seal even when traffic
// pauses (ClockWall only).
func (p *Pipeline) wallLoop() {
	defer close(p.wallDone)
	ticker := time.NewTicker(p.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.wallStop:
			return
		case <-ticker.C:
			p.mu.Lock()
			if !p.closed {
				p.sealThroughLocked(time.Now().UnixNano()/p.intervalNs-1-p.slackEpochs, false)
			}
			p.mu.Unlock()
		}
	}
}

// Close drains the pipeline: it stops accepting datagrams, seals every
// open epoch (marking intervals whose slack had not elapsed as Partial) and
// delivers the final intervals to the sink before returning. No accepted
// record is discarded. Safe to call multiple times.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	onTime := p.watermark - 1 - p.slackEpochs
	p.sealThroughLocked(onTime, false)
	p.sealThroughLocked(p.watermark, true)
	p.mu.Unlock()

	if p.wallStop != nil {
		close(p.wallStop)
		<-p.wallDone
	}
	// closed is set and mu released: nothing sends on sealCh any more.
	close(p.sealCh)
	<-p.deliverDone
	p.log.Info("ingest pipeline drained",
		"records", p.met.Records.Value(),
		"epochs", p.met.EpochsSealed.Value(),
		"partial", p.met.PartialEpochs.Value())
	return nil
}
