// Package tier is the one coordination core under every role of Fig. 1. The
// paper's protocol has two sides and nothing else: a tier accepts registrants
// below it (Downstream: Hello validation, flow ownership, per-interval volume
// assembly, lazy sketch pulls, alarm fan-out) and registers with a tier above
// it (Uplink: dial, Hello, serve requests, redial). The NOC is a Downstream
// whose sink feeds core.Detector; an aggregator is a Downstream plus an
// Uplink whose sink forwards merged volumes and answers pulls with
// sketch.MergeColumns; a monitor is an Uplink in front of its sketch state. Because
// mergeable sketches make a mid tier the same pull-merge-forward step, a tier
// whose upstream is another tier needs no further code.
//
// The core is parameterised by data — the deployment parameters, the required
// flow set, timeouts, metric handles and sink callbacks — never by which role
// is calling, so the circuit breaker, the symmetric staleness rule, the cache
// substitution it gates and the flush of pending intervals on every ownership
// change exist exactly once.
package tier

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"sync"
	"time"

	"streampca/internal/core"
	"streampca/internal/faults"
	"streampca/internal/obs"
	"streampca/internal/sketch"
	"streampca/internal/transport"
)

// ErrConfig indicates a registration that disagrees with the deployment
// parameters or claims flows it may not have.
var ErrConfig = errors.New("tier: invalid registration")

// Metrics are the obs handles the downstream half instruments into; the
// caller registers them under its own names. All must be non-nil.
type Metrics struct {
	Registrants  *obs.Gauge   // currently registered peers
	Rejected     *obs.Counter // Hellos refused
	Evicted      *obs.Counter // pending intervals dropped oldest-first
	PullRetries  *obs.Counter // pull rounds after the first
	BreakerOpen  *obs.Gauge   // registrants currently excluded from pulls
	BreakerOpens *obs.Counter // closed→open transitions
	// Volume reports dropped: sent under another ID than the connection
	// registered, or with another number of volumes than flows (see
	// addVolumes). The roles register both as one counter with a reason
	// label (DroppedReports).
	DroppedForeign, DroppedMismatch *obs.Counter
}

// DroppedReports registers the two volume-report drop counters of Metrics
// as the series of name under reason="foreign_identity" and
// reason="flow_count".
func DroppedReports(reg *obs.Registry, name string) (foreign, mismatch *obs.Counter) {
	const help = "Volume reports dropped, by reason: under a foreign identity, or with a volume count unlike the flow count."
	return reg.Counter(name, help, obs.L("reason", "foreign_identity")), reg.Counter(name, help, obs.L("reason", "flow_count"))
}

// DownstreamConfig parameterises the downstream half.
type DownstreamConfig struct {
	core.Params
	// RequireAll makes the required flow set [0, NumFlows) instead of empty.
	// A required flow must be present in every completed interval (reported,
	// or cache-filled under Degraded) and covered by every pull; a flow that
	// is not required matters only while a live registrant owns it.
	RequireAll bool
	// Pull paces the sketch pulls; its unset fields take PullDefaults', the
	// role's (NOCPull, AggPull).
	Pull         PullPolicy
	PullDefaults PullPolicy
	// BreakerThreshold opens a registrant's circuit breaker after that many
	// consecutive pull failures (send error, invalid report, timeout); open
	// registrants are skipped until BreakerCooldown elapses, then probed
	// once. 0 selects 3, negative disables; the cooldown defaults to 5s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	Degraded         DegradedPolicy
	// Faults, when non-nil, is installed on every accepted connection.
	Faults      faults.Injector
	WireMetrics *transport.Metrics
	Metrics     Metrics
	Log         *slog.Logger
	// OnInterval receives every completed interval. It runs on a connection
	// reader with no lock held and must not block on the registrants.
	OnInterval func(Interval)
	// OnJoin runs once per accepted connection, after its first Hello;
	// OnChange after every change of the registrant set or its flow claims
	// (join, re-Hello, departure), once pending intervals were re-examined.
	// Either may be nil.
	OnJoin   func(*transport.Conn)
	OnChange func()
}

// Interval is one completed interval of volumes.
type Interval struct {
	Index int64
	// Volumes is dense over [0, NumFlows); Seen marks the entries that were
	// reported. Unseen required flows hold their cached volume (Stale counts
	// them); other unseen entries are zero and mean "no data".
	Volumes []float64
	Seen    []bool
	Stale   int
}

// Registrant describes one registered peer.
type Registrant struct {
	ID    string
	Flows int
	Role  transport.Role
	// SketchInterval is the interval of the peer's last validated sketch
	// report, -1 when there is none.
	SketchInterval int64
	BreakerOpen    bool
}

type registrant struct {
	id    string
	flows []int
	conn  *transport.Conn
	role  transport.Role
}

// maxPending bounds the partially reported intervals a tier holds; past it
// the oldest is evicted and counted (Metrics.Evicted).
const maxPending = 64

// maxFree bounds the released interval arrays and the retired pull rounds a
// tier keeps for reuse.
const maxFree = 2

type accum struct {
	volumes []float64
	seen    []bool
	n       int
}

// breakerState tracks consecutive pull failures; the breaker is open while
// failures >= BreakerThreshold, and openUntil gates the half-open probe.
type breakerState struct {
	failures  int
	openUntil time.Time
}

// column is one flow's cached randproj sketch column: what the report at
// interval at carried for it, and its R′ (nil: none), a copy the columns of
// that report share.
type column struct {
	sketch []float64
	mean   float64
	count  int64
	at     int64
	rows   *rowCopy
}

// rowCopy is a copy of one report's R′ and the number of cached columns
// that point at it; at none, fold reuses it for the next report's.
type rowCopy struct {
	sums []float64
	refs int
}

type response struct {
	conn *transport.Conn
	r    *transport.SketchResponse
}

// Downstream is the half of a tier that faces its registrants.
type Downstream struct {
	cfg  DownstreamConfig
	log  *slog.Logger
	done chan struct{}

	// bcastMu serializes Broadcast, which reuses bcast.
	bcastMu sync.Mutex
	bcast   []*transport.Conn

	mu      sync.Mutex
	server  *transport.Server
	closed  bool
	regs    map[*transport.Conn]*registrant
	owner   []*registrant // per flow; nil = unowned
	pending map[int64]accum
	// freeAcc holds intervals' arrays handed back by ReleaseInterval or
	// evicted, zeroed, for the next accumulators addVolumes opens; at most
	// maxFree. One is not enough: a sink may release an interval after the
	// next one's first report arrived.
	freeAcc []accum
	// rounds are the pull rounds in progress by request ID; idle are retired
	// ones kept for reuse, at most maxFree (see round).
	rounds  map[uint64]*pullRound
	idle    []*pullRound
	nextReq uint64
	// breakers and cache are keyed by registrant ID, so they survive a
	// reconnect under the same identity. cache holds each registrant's last
	// validated report, whole for FD and its interval alone for randproj,
	// whose arrays are recycled; cols, kept only for a degraded randproj
	// tier, a copy of each flow's newest validated column. Pull fills from
	// the two (see fill).
	breakers map[string]*breakerState
	cache    map[string]core.SketchReport
	cols     []column
	// freeRows are R′ copies no cached column points at; folding is a fold's
	// scratch, the copy of each of its report's R′.
	freeRows []*rowCopy
	folding  []*rowCopy
	// spares are released randproj responses keyed by the registrant's
	// connection they arrived on, each reused to decode that registrant's
	// next answer, so its arrays already have the answer's shape (see
	// Release); free is a released Pull, reused by the next.
	spares map[*transport.Conn]*transport.SketchResponse
	free   *Pull
	// lastVol/lastVolAt hold each flow's most recent reported volume;
	// lastVolAt is -1 until first seen. lastInterval is the newest interval
	// any volume report named.
	lastVol      []float64
	lastVolAt    []int64
	lastInterval int64
	rng          *rand.Rand
}

// NewDownstream applies the defaults and builds the half (not yet
// listening); it fails only on a policy the rule refuses (ErrPolicy).
func NewDownstream(cfg DownstreamConfig) (*Downstream, error) {
	var err error
	if cfg.Degraded, err = cfg.Degraded.resolve(cfg.WindowLen); err != nil {
		return nil, err
	}
	cfg.Pull = cfg.Pull.Or(cfg.PullDefaults)
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = obs.Nop()
	}
	lastVolAt := make([]int64, cfg.NumFlows)
	for i := range lastVolAt {
		lastVolAt[i] = -1
	}
	var cols []column
	if cfg.Degraded.Enabled && cfg.Family == sketch.FamilyRandProj {
		cols = make([]column, cfg.NumFlows)
	}
	return &Downstream{
		cfg:       cfg,
		log:       cfg.Log,
		done:      make(chan struct{}),
		regs:      make(map[*transport.Conn]*registrant),
		owner:     make([]*registrant, cfg.NumFlows),
		pending:   make(map[int64]accum),
		rounds:    make(map[uint64]*pullRound),
		breakers:  make(map[string]*breakerState),
		cache:     make(map[string]core.SketchReport),
		spares:    make(map[*transport.Conn]*transport.SketchResponse),
		cols:      cols,
		lastVol:   make([]float64, cfg.NumFlows),
		lastVolAt: lastVolAt,
		// Seeded so chaos tests see reproducible backoff jitter.
		rng: rand.New(rand.NewSource(int64(cfg.Seed) + 1)),
	}, nil
}

// Serve starts accepting registrants on addr.
func (d *Downstream) Serve(addr string) error {
	srv, err := transport.ListenWithOptions(addr, d.Handle, d.cfg.WireMetrics, d.cfg.Faults)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.server = srv
	d.mu.Unlock()
	return nil
}

// Addr returns the listen address, "" before Serve.
func (d *Downstream) Addr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.server == nil {
		return ""
	}
	return d.server.Addr()
}

// Shutdown aborts pulls in flight, stops the listener, drops every
// registrant and waits for their readers. Safe to call more than once and
// without Serve.
func (d *Downstream) Shutdown() {
	d.mu.Lock()
	srv := d.server
	if !d.closed {
		d.closed = true
		close(d.done)
	}
	d.mu.Unlock()
	if srv != nil {
		srv.Shutdown()
	}
}

// Registrants lists the registered peers, sorted by ID.
func (d *Downstream) Registrants() []Registrant {
	now := time.Now()
	d.mu.Lock()
	out := make([]Registrant, 0, len(d.regs))
	for _, e := range d.regs {
		r := Registrant{ID: e.id, Flows: len(e.flows), Role: e.role, SketchInterval: -1}
		if rep, ok := d.cache[e.id]; ok {
			r.SketchInterval = rep.Interval
		}
		r.BreakerOpen = d.excludedLocked(e.id, now)
		out = append(out, r)
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Params returns the protocol parameters the tier validates against.
func (d *Downstream) Params() core.Params { return d.cfg.Params }

// Degraded returns the degraded-mode policy in force, defaults applied.
func (d *Downstream) Degraded() DegradedPolicy { return d.cfg.Degraded }

// IDs lists the registered peers' IDs, sorted.
func (d *Downstream) IDs() []string {
	d.mu.Lock()
	out := make([]string, 0, len(d.regs))
	for _, e := range d.regs {
		out = append(out, e.id)
	}
	d.mu.Unlock()
	sort.Strings(out)
	return out
}

// OwnedFlows returns the sorted union of the registrants' flow claims.
func (d *Downstream) OwnedFlows() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []int
	for f, o := range d.owner {
		if o != nil {
			out = append(out, f)
		}
	}
	return out
}

// PendingIntervals reports how many partially reported intervals are held.
func (d *Downstream) PendingIntervals() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending)
}

// Broadcast sends env to every registrant, best effort, and reports how many
// sends were attempted and how many succeeded. Broadcasts run one at a time,
// over a list of the registrants the tier reuses.
func (d *Downstream) Broadcast(env transport.Envelope) (attempted, delivered int) {
	d.bcastMu.Lock()
	defer d.bcastMu.Unlock()
	d.mu.Lock()
	conns := d.bcast[:0]
	for c := range d.regs {
		conns = append(conns, c)
	}
	d.mu.Unlock()
	for _, c := range conns {
		if c.Send(env) == nil {
			delivered++
		}
	}
	clear(conns)
	d.bcast = conns
	return len(conns), delivered
}

// Handle owns one registrant connection: the Hello handshake, then volume
// reports, sketch responses and repeat Hellos until the link dies. Serve
// installs it on every accepted connection; tests drive it over pipes.
//
// Volume reports decode into one report the connection reuses, which
// addVolumes folds into the interval accumulator before the next is read.
// A sketch response decodes into the registrant's spare one (see spare)
// that travels to its pull round whole, and the connection takes another.
func (d *Downstream) Handle(conn *transport.Conn) {
	env, err := conn.Recv()
	if errors.Is(err, transport.ErrVersion) {
		d.cfg.Metrics.Rejected.Inc()
		d.log.Warn("peer refused", "err", err)
		_ = conn.Send(transport.Envelope{Error: &transport.ProtocolError{Msg: err.Error(), Kind: transport.ErrorVersion}})
		return
	}
	if err != nil {
		return
	}
	if env.Hello == nil {
		_ = conn.Send(transport.Envelope{Error: &transport.ProtocolError{Msg: "first frame must be hello"}})
		return
	}
	if !d.hello(conn, env.Hello, true) {
		return
	}
	defer d.drop(conn)
	var vol transport.VolumeReport
	resp := d.spare(conn)
	for {
		env := transport.Envelope{Volume: &vol, Response: resp}
		if err := conn.RecvInto(&env); err != nil {
			return
		}
		switch {
		case env.Volume != nil:
			d.addVolumes(conn, env.Volume)
		case env.Response != nil:
			if d.routeResponse(conn, env.Response) {
				resp = d.spare(conn)
			}
		case env.Hello != nil:
			// A repeat Hello re-registers: a mid tier re-announces when its
			// flow union changes. A conflicting claim is rejected and the
			// connection closed; the peer's redial retries once it clears.
			if !d.hello(conn, env.Hello, false) {
				return
			}
		default:
			// Tolerate well-formed but unexpected frames.
		}
	}
}

// spare returns the response of conn's registrant that a pull last released
// (see Release) to decode into, or a new one.
func (d *Downstream) spare(conn *transport.Conn) *transport.SketchResponse {
	d.mu.Lock()
	defer d.mu.Unlock()
	if r := d.spares[conn]; r != nil {
		delete(d.spares, conn)
		return r
	}
	return new(transport.SketchResponse)
}

// hello registers conn and settles the ownership change, or rejects it. A
// Hello that states no parameters is answered with the announcement before
// anything else is sent to the peer.
func (d *Downstream) hello(conn *transport.Conn, h *transport.Hello, first bool) bool {
	if err := d.register(conn, h); err != nil {
		d.cfg.Metrics.Rejected.Inc()
		d.log.Warn("registration rejected", "peer", h.MonitorID, "err", err)
		refusal := &transport.ProtocolError{Msg: err.Error()}
		if errors.Is(err, ErrParams) {
			refusal.Kind = transport.ErrorParams
		}
		_ = conn.Send(transport.Envelope{Error: refusal})
		return false
	}
	if h.WindowLen == 0 {
		a := Stated(d.cfg.Params, transport.Hello{})
		_ = conn.Send(transport.Envelope{Hello: &a})
	}
	if first && d.cfg.OnJoin != nil {
		d.cfg.OnJoin(conn)
	}
	d.settle()
	return true
}

// register validates a Hello against the deployment parameters and claims
// its flows. A Hello stating no window comes from a peer that has not
// adopted the parameters yet; it may claim no flows. A repeat Hello first
// releases the connection's old claim, so a shrinking union frees its flows;
// a rejected one leaves it unregistered.
func (d *Downstream) register(conn *transport.Conn, h *transport.Hello) error {
	p := d.cfg.Params
	switch got := ParamsOf(*h); {
	case h.WindowLen == 0 && len(h.FlowIDs) > 0:
		return fmt.Errorf("%w: peer %q claims flows under no parameters", ErrParams, h.MonitorID)
	case h.WindowLen != 0 && !agrees(p, got):
		return fmt.Errorf("%w: peer %q runs %+v, the deployment %+v", ErrParams, h.MonitorID, got, p)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.releaseLocked(conn)
	for _, f := range h.FlowIDs {
		if f < 0 || f >= p.NumFlows {
			return fmt.Errorf("%w: peer %q flow %d of %d", ErrConfig, h.MonitorID, f, p.NumFlows)
		}
		if d.owner[f] != nil {
			return fmt.Errorf("%w: flow %d already owned", ErrConfig, f)
		}
	}
	e := &registrant{id: h.MonitorID, flows: append([]int(nil), h.FlowIDs...), conn: conn, role: h.Role}
	d.regs[conn] = e
	for _, f := range e.flows {
		d.owner[f] = e
	}
	// A (re-)registration is proof of life: forget past pull failures.
	if _, tripped := d.breakers[e.id]; tripped {
		delete(d.breakers, e.id)
		d.breakerGaugeLocked()
	}
	d.cfg.Metrics.Registrants.Set(float64(len(d.regs)))
	d.log.Info("peer registered", "peer", e.id, "role", e.role.String(), "flows", len(e.flows))
	return nil
}

// releaseLocked removes conn's registration and flow claims, if any.
func (d *Downstream) releaseLocked(conn *transport.Conn) *registrant {
	e := d.regs[conn]
	if e == nil {
		return nil
	}
	delete(d.regs, conn)
	for _, f := range e.flows {
		if d.owner[f] == e {
			d.owner[f] = nil
		}
	}
	d.cfg.Metrics.Registrants.Set(float64(len(d.regs)))
	return e
}

func (d *Downstream) drop(conn *transport.Conn) {
	d.mu.Lock()
	e := d.releaseLocked(conn)
	delete(d.spares, conn)
	d.mu.Unlock()
	if e != nil {
		d.log.Info("peer dropped", "peer", e.id, "flows", len(e.flows))
	}
	d.settle()
}

// settle follows every ownership change: flows that lost their owner no
// longer block pending intervals, so the completable ones are delivered
// oldest first, and then the sink is told the registrant set changed.
func (d *Downstream) settle() {
	d.mu.Lock()
	var ready []Interval
	for iv, acc := range d.pending {
		if item, ok := d.tryCompleteLocked(iv, &acc); ok {
			ready = append(ready, item)
		}
	}
	d.mu.Unlock()
	sort.Slice(ready, func(i, j int) bool { return ready[i].Index < ready[j].Index })
	for _, item := range ready {
		d.cfg.OnInterval(item)
	}
	if d.cfg.OnChange != nil {
		d.cfg.OnChange()
	}
}

// addVolumes folds a volume report into its interval accumulator. The report
// is bound to the connection it arrived on: it must carry the sender's
// registered ID, an empty flow list stands for the flows of the sender's
// last Hello, and entries naming a flow another live registrant owns are
// skipped. Flows nobody owns are accepted — a mid tier legitimately forwards
// what a monitor reported before it died. A report under another ID, or
// whose volumes do not match its flows in number, is dropped, counted and
// logged.
func (d *Downstream) addVolumes(conn *transport.Conn, v *transport.VolumeReport) {
	m := d.cfg.NumFlows
	d.mu.Lock()
	from := d.regs[conn]
	if from == nil || v.MonitorID != from.id {
		d.mu.Unlock()
		d.cfg.Metrics.DroppedForeign.Inc()
		d.log.Warn("volume report under a foreign identity dropped", "claimed", v.MonitorID)
		return
	}
	flows := v.FlowIDs
	if len(flows) == 0 {
		flows = from.flows
	}
	if len(flows) != len(v.Volumes) {
		d.mu.Unlock()
		d.cfg.Metrics.DroppedMismatch.Inc()
		d.log.Warn("volume report with a volume count unlike its flow count dropped",
			"peer", from.id, "interval", v.Interval, "flows", len(flows), "volumes", len(v.Volumes))
		return
	}
	if v.Interval > d.lastInterval {
		d.lastInterval = v.Interval
	}
	acc, open := d.pending[v.Interval]
	if !open {
		if len(d.pending) >= maxPending {
			var oldest int64 = 1<<63 - 1
			for iv := range d.pending {
				if iv < oldest {
					oldest = iv
				}
			}
			old := d.pending[oldest]
			delete(d.pending, oldest)
			d.recycleLocked(old.volumes, old.seen)
			d.cfg.Metrics.Evicted.Inc()
		}
		if n := len(d.freeAcc); n > 0 {
			acc, d.freeAcc = d.freeAcc[n-1], d.freeAcc[:n-1]
		} else {
			acc = accum{volumes: make([]float64, m), seen: make([]bool, m)}
		}
	}
	for i, f := range flows {
		if f < 0 || f >= m || (d.owner[f] != nil && d.owner[f] != from) {
			continue
		}
		if v.Interval >= d.lastVolAt[f] {
			d.lastVol[f], d.lastVolAt[f] = v.Volumes[i], v.Interval
		}
		if !acc.seen[f] {
			acc.seen[f], acc.volumes[f] = true, v.Volumes[i]
			acc.n++
		}
	}
	d.pending[v.Interval] = acc
	item, complete := d.tryCompleteLocked(v.Interval, &acc)
	d.mu.Unlock()
	if complete {
		d.cfg.OnInterval(item)
	}
}

// tryCompleteLocked decides whether interval iv can be delivered: every
// flow a live registrant owns has reported (an owned-but-silent flow always
// blocks — its report is coming), and every other required flow has either
// reported or, under DegradedPolicy, a cached volume fresh enough to stand
// in. An interval nobody reported into, or with no one left to want it, is
// never complete. Caller holds d.mu; on success the accumulator is removed.
func (d *Downstream) tryCompleteLocked(iv int64, acc *accum) (Interval, bool) {
	if acc.n == 0 || (!d.cfg.RequireAll && len(d.regs) == 0) {
		return Interval{}, false
	}
	stale := 0
	for f, seen := range acc.seen {
		switch {
		case seen:
		case d.owner[f] != nil:
			return Interval{}, false
		case !d.cfg.RequireAll:
		case d.lastVolAt[f] < 0 || !d.cfg.Degraded.Fresh(iv, d.lastVolAt[f]):
			return Interval{}, false
		default:
			stale++
		}
	}
	if stale > 0 {
		for f, seen := range acc.seen {
			if !seen {
				acc.volumes[f] = d.lastVol[f]
			}
		}
	}
	delete(d.pending, iv)
	return Interval{Index: iv, Volumes: acc.volumes, Seen: acc.seen, Stale: stale}, true
}

// ReleaseInterval hands the tier back the arrays of iv, an interval it
// delivered to OnInterval: a later interval accumulator addVolumes opens
// reuses them. Call it once, when nothing reads iv any more; an interval
// never released costs an allocation, not correctness.
func (d *Downstream) ReleaseInterval(iv Interval) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recycleLocked(iv.Volumes, iv.Seen)
}

// recycleLocked zeroes an interval's arrays and keeps them for a later
// accumulator while fewer than maxFree are kept. Caller holds d.mu.
func (d *Downstream) recycleLocked(volumes []float64, seen []bool) {
	m := d.cfg.NumFlows
	if len(volumes) != m || len(seen) != m || len(d.freeAcc) >= maxFree {
		return
	}
	clear(volumes)
	clear(seen)
	d.freeAcc = append(d.freeAcc, accum{volumes: volumes, seen: seen})
}

// routeResponse hands a sketch response to the pull round waiting for it,
// tagged with the connection it arrived on, and reports whether it did. A
// response to a round that is over (its ID was retired) is dropped. The send
// happens under d.mu, so once retire has drained a round nothing reaches it.
func (d *Downstream) routeResponse(conn *transport.Conn, r *transport.SketchResponse) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	rd := d.rounds[r.RequestID]
	if rd == nil {
		return false
	}
	select {
	case rd.ch <- response{conn, r}:
		return true
	default:
		return false
	}
}
