package ingest

import (
	"fmt"
	"log/slog"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
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
	// aggregator's flow ids (length NumFlows).
	Volumes []float64
	// Records is the number of flow records folded into this interval.
	Records int64
	// Partial marks an interval sealed early by shutdown drain, before its
	// lateness slack elapsed.
	Partial bool
}

// Config parameterizes a Pipeline.
type Config struct {
	// Aggregator maps record addresses to OD flow indices. It is read
	// concurrently by every shard and must not be mutated after Start.
	Aggregator *flow.Aggregator
	// Interval is the measurement interval length (the paper's 5-minute
	// bins). Required, ≥ 1ms.
	Interval time.Duration
	// Shards is the number of parallel aggregation shards; values < 1
	// resolve to runtime.GOMAXPROCS(0).
	Shards int
	// QueueLen is the per-shard bounded queue capacity in batches
	// (datagrams); default 256.
	QueueLen int
	// Policy is the backpressure policy when a shard queue fills.
	Policy Policy
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
	// order, from a single goroutine. A Sink error is counted and logged;
	// the pipeline keeps running.
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
	// interval (trace id trace.ForInterval(Seq)) carrying the drop/partial/
	// lateness counters at seal time — the first hop of the interval's
	// lineage. Nil costs one pointer check per interval.
	Trace *trace.Tracer
}

// sealed is one shard's contribution to a sealed epoch.
type sealed struct {
	epoch    int64
	row      []float64 // nil when the shard saw no records for the epoch
	records  int64
	partial  bool
	sealedAt time.Time
}

// shard owns one private volume accumulator set, fed by its bounded queue.
type shard struct {
	q   *queue
	agg *flow.Aggregator
	// acc/recCount hold the open epochs' accumulator rows (at most
	// slack+2 epochs are open at once).
	acc      map[int64][]float64
	recCount map[int64]int64
	done     chan struct{}
}

// Pipeline is the ingest subsystem: decode → shard queues → accumulate →
// seal → merge → sink. Create with NewPipeline, feed with HandleDatagram
// (or a Collector), stop with Close — Close drains every queued batch and
// seals open intervals before returning, so no accepted record is lost.
type Pipeline struct {
	cfg         Config
	agg         *flow.Aggregator
	met         *Metrics
	log         *slog.Logger
	intervalNs  int64
	slackEpochs int64
	maxJump     int64

	shards  []*shard
	mergeCh chan sealed
	depth   atomic.Int64 // queued data batches across shards

	// mu serializes the front end's bookkeeping: sequence tracking,
	// watermark/seal state, round-robin shard selection, and the queue
	// pushes themselves (so a seal token can never overtake the data it
	// must follow). Datagram decode happens *before* the lock, into a
	// pooled slab, so concurrent collector sockets pay the lock only for
	// the cheap ordered tail of the path.
	mu            sync.Mutex
	seq           SeqTracker
	started       bool
	watermark     int64
	sealedThrough int64
	rr            int
	closed        bool

	slabPool sync.Pool

	mergerDone chan struct{}
	wallStop   chan struct{}
	wallDone   chan struct{}
}

// NewPipeline validates cfg and starts the shard, merger and (for
// ClockWall) ticker goroutines.
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
	if cfg.QueueLen == 0 {
		cfg.QueueLen = 256
	}
	if cfg.QueueLen < 1 {
		return nil, fmt.Errorf("%w: queue length %d", ErrConfig, cfg.QueueLen)
	}
	if cfg.MaxEpochJump == 0 {
		cfg.MaxEpochJump = 64
	}
	if cfg.MaxEpochJump < 1 {
		return nil, fmt.Errorf("%w: max epoch jump %d", ErrConfig, cfg.MaxEpochJump)
	}
	switch cfg.Policy {
	case PolicyBlock, PolicyDropOldest, PolicyDropNewest:
	default:
		return nil, fmt.Errorf("%w: policy %v", ErrConfig, cfg.Policy)
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
	n := cfg.Shards
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pipeline{
		cfg:         cfg,
		agg:         cfg.Aggregator,
		met:         NewMetrics(reg),
		log:         log.With("component", "ingest"),
		intervalNs:  cfg.Interval.Nanoseconds(),
		slackEpochs: (cfg.Lateness.Nanoseconds() + cfg.Interval.Nanoseconds() - 1) / cfg.Interval.Nanoseconds(),
		maxJump:     cfg.MaxEpochJump,
		mergeCh:     make(chan sealed, 4*n),
		mergerDone:  make(chan struct{}),
	}
	p.slabPool.New = func() any { return new(recSlab) }
	p.met.Shards.Set(float64(n))
	for i := 0; i < n; i++ {
		sh := &shard{
			q:        newQueue(cfg.QueueLen, cfg.Policy),
			agg:      cfg.Aggregator,
			acc:      make(map[int64][]float64),
			recCount: make(map[int64]int64),
			done:     make(chan struct{}),
		}
		p.shards = append(p.shards, sh)
		go p.shardLoop(sh)
	}
	go p.mergerLoop()
	if cfg.Clock == ClockWall {
		p.wallStop = make(chan struct{})
		p.wallDone = make(chan struct{})
		go p.wallLoop()
	}
	p.log.Info("ingest pipeline started",
		"shards", n, "queue", cfg.QueueLen, "policy", cfg.Policy.String(),
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

	// Batch decode before taking the front-end lock: the expensive per-record
	// parse runs concurrently across collector sockets, straight into a
	// pooled slab in the compact shard-facing layout.
	slab := p.slabPool.Get().(*recSlab)
	var h Header
	if err := decodeRecords(buf, &h, slab); err != nil {
		p.slabPool.Put(slab)
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
	if p.closed {
		p.mu.Unlock()
		p.slabPool.Put(slab)
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
		p.mu.Unlock()
		p.slabPool.Put(slab)
		return nil
	}
	if epoch > p.watermark+p.maxJump {
		p.met.FutureDrops.Add(count)
		p.mu.Unlock()
		p.slabPool.Put(slab)
		return nil
	}
	if epoch > p.watermark {
		p.watermark = epoch
	}
	p.sealThroughLocked(p.watermark-1-p.slackEpochs, false)

	// Round-robin the datagram's slab to a shard.
	sh := p.shards[p.rr%len(p.shards)]
	p.rr++
	admitted, evicted := sh.q.pushData(batch{epoch: epoch, slab: slab})
	if admitted {
		p.met.QueueDepth.Set(float64(p.depth.Add(1)))
	} else {
		p.met.DroppedNewest.Add(int64(slab.n))
		p.slabPool.Put(slab)
	}
	if evicted != nil {
		p.met.DroppedOldest.Add(int64(evicted.n))
		p.met.QueueDepth.Set(float64(p.depth.Add(-1)))
		p.slabPool.Put(evicted)
	}
	p.mu.Unlock()
	return nil
}

// sealThroughLocked broadcasts seal tokens for every unsealed epoch up to
// and including target. Seal tokens follow all data batches already queued
// for those epochs (same queues, same producer lock), so a shard sees the
// seal only after folding everything in.
func (p *Pipeline) sealThroughLocked(target int64, partial bool) {
	if !p.started || target <= p.sealedThrough {
		return
	}
	now := time.Now()
	for e := p.sealedThrough + 1; e <= target; e++ {
		for _, sh := range p.shards {
			sh.q.pushCtl(batch{ctl: ctlSeal, epoch: e, partial: partial, sealedAt: now})
		}
	}
	p.sealedThrough = target
}

// shardLoop drains one shard's queue: data batches fold into the shard's
// private per-epoch accumulator; seal tokens hand the finished row to the
// merger; stop tokens exit after everything queued has been processed.
func (p *Pipeline) shardLoop(sh *shard) {
	defer close(sh.done)
	for {
		b := sh.q.pop()
		switch b.ctl {
		case ctlData:
			p.met.QueueDepth.Set(float64(p.depth.Add(-1)))
			row := sh.acc[b.epoch]
			if row == nil {
				row = make([]float64, p.agg.NumFlows())
				sh.acc[b.epoch] = row
			}
			var unroutable int64
			recs := b.slab.recs[:b.slab.n]
			for i := range recs {
				r := &recs[i]
				id, err := sh.agg.FlowID(flow.Packet{
					Src: netip.AddrFrom4(r.src),
					Dst: netip.AddrFrom4(r.dst),
				})
				if err != nil {
					unroutable++
					continue
				}
				row[id] += float64(r.octets)
			}
			sh.recCount[b.epoch] += int64(len(recs)) - unroutable
			if unroutable > 0 {
				p.met.Unroutable.Add(unroutable)
			}
			p.slabPool.Put(b.slab)
		case ctlSeal:
			row := sh.acc[b.epoch]
			records := sh.recCount[b.epoch]
			delete(sh.acc, b.epoch)
			delete(sh.recCount, b.epoch)
			p.mergeCh <- sealed{epoch: b.epoch, row: row, records: records,
				partial: b.partial, sealedAt: b.sealedAt}
		case ctlStop:
			return
		}
	}
}

// mergeState accumulates the shard contributions for one sealing epoch.
type mergeState struct {
	rows     [][]float64
	records  int64
	seen     int
	partial  bool
	sealedAt time.Time
}

// mergerLoop collects the per-shard rows of each sealed epoch, sums them
// and delivers the interval to the sink.
// Per-shard seal order plus channel FIFO guarantee epochs complete in
// increasing order (see DESIGN.md §12).
func (p *Pipeline) mergerLoop() {
	defer close(p.mergerDone)
	pending := make(map[int64]*mergeState)
	var baseEpoch, deliveredTo int64
	first := true
	for s := range p.mergeCh {
		st := pending[s.epoch]
		if st == nil {
			st = &mergeState{sealedAt: s.sealedAt}
			pending[s.epoch] = st
		}
		st.seen++
		st.records += s.records
		st.partial = st.partial || s.partial
		if s.row != nil {
			st.rows = append(st.rows, s.row)
		}
		if st.seen < len(p.shards) {
			continue
		}
		delete(pending, s.epoch)
		if first {
			baseEpoch = s.epoch
			deliveredTo = s.epoch - 1
			first = false
		}
		if s.epoch != deliveredTo+1 {
			// Cannot happen given the seal-ordering invariant; surface
			// loudly rather than feeding the monitor out of order.
			p.log.Error("ingest merger: epoch out of order",
				"epoch", s.epoch, "expected", deliveredTo+1)
		}
		deliveredTo = s.epoch
		p.deliver(s.epoch, s.epoch-baseEpoch+1, st)
	}
	if len(pending) > 0 {
		p.log.Error("ingest merger: undelivered epochs at shutdown", "count", len(pending))
	}
}

// deliver merges st's shard rows into one volume vector and hands it to
// the sink.
func (p *Pipeline) deliver(epoch, seq int64, st *mergeState) {
	sp := p.cfg.Trace.Start(trace.ForInterval(seq), 0, "ingest.seal",
		trace.I("interval", seq),
		trace.I("epoch", epoch),
		trace.I("records", st.records),
		trace.B("partial", st.partial))
	m := p.agg.NumFlows()
	volumes := make([]float64, m)
	for _, row := range st.rows {
		for j := range volumes {
			volumes[j] += row[j]
		}
	}
	iv := Interval{
		Epoch:   epoch,
		Seq:     seq,
		Volumes: volumes,
		Records: st.records,
		Partial: st.partial,
	}
	if err := p.cfg.Sink(iv); err != nil {
		p.met.SinkErrors.Inc()
		p.log.Warn("ingest sink rejected interval", "seq", seq, "epoch", epoch, "err", err)
		sp.Event("sink_error", trace.S("err", err.Error()))
	}
	p.met.EpochsSealed.Inc()
	if st.partial {
		p.met.PartialEpochs.Inc()
	}
	p.met.RolloverSeconds.Observe(time.Since(st.sealedAt).Seconds())
	if sp != nil {
		// Cumulative pipeline counters at seal time: diffing consecutive
		// seal spans localizes drops and late arrivals to an interval.
		sp.SetAttr(
			trace.I("late_records", p.met.LateRecords.Value()),
			trace.I("future_drops", p.met.FutureDrops.Value()),
			trace.I("dropped_oldest", p.met.DroppedOldest.Value()),
			trace.I("dropped_newest", p.met.DroppedNewest.Value()),
			trace.I("partial_epochs", p.met.PartialEpochs.Value()),
			trace.F("queue_depth", p.met.QueueDepth.Value()),
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
// open epoch (marking intervals whose slack had not elapsed as Partial),
// waits for the shards to fold every queued batch, and delivers the final
// intervals to the sink before returning. No accepted record is discarded.
// Safe to call multiple times.
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
	for _, sh := range p.shards {
		sh.q.pushCtl(batch{ctl: ctlStop})
	}
	p.mu.Unlock()

	if p.wallStop != nil {
		close(p.wallStop)
		<-p.wallDone
	}
	for _, sh := range p.shards {
		<-sh.done
	}
	close(p.mergeCh)
	<-p.mergerDone
	p.log.Info("ingest pipeline drained",
		"records", p.met.Records.Value(),
		"epochs", p.met.EpochsSealed.Value(),
		"partial", p.met.PartialEpochs.Value())
	return nil
}
