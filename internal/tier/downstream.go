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
// is calling, so the circuit breaker, the symmetric staleness rule and the
// flush of pending intervals on every ownership change exist exactly once.
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

// Params are the deployment parameters every Hello is validated against.
// SketchLen carries the family's sketch parameter (l for randproj, the basis
// budget ℓ for FD); Seed is compared for the randproj family only.
type Params struct {
	Family    sketch.Family
	NumFlows  int
	WindowLen int
	SketchLen int
	Seed      uint64
}

// DegradedPolicy configures graceful degradation: instead of stalling when a
// registrant is missing, its flows' last validated data — volumes when an
// interval is assembled, sketch reports when a pull is answered — stand in,
// and the result is flagged degraded. Sharan et al. show sketch-based
// detection tolerates approximate inputs; the substitution trades Theorem 2's
// freshness for availability.
type DegradedPolicy struct {
	// Enabled turns degradation on. Off (the default), incomplete coverage
	// stalls interval assembly and leaves pulls uncovered.
	Enabled bool
	// MaxStaleness bounds, in intervals, how far cached data may lie from the
	// point it stands in for.
	MaxStaleness int64
}

// Fresh is the one staleness rule: cached data from interval at may stand in
// at reference interval ref when the policy is on and their distance is
// within MaxStaleness. The distance is symmetric — a registrant that raced
// ahead before vanishing leaves cache entries newer than ref, and filling
// from the far future is as wrong as from the far past.
func (p DegradedPolicy) Fresh(ref, at int64) bool {
	age := ref - at
	if age < 0 {
		age = -age
	}
	return p.Enabled && age <= p.MaxStaleness
}

// Metrics are the obs handles the downstream half instruments into; the
// caller registers them under its own names. All must be non-nil.
type Metrics struct {
	Registrants  *obs.Gauge   // currently registered peers
	Rejected     *obs.Counter // Hellos refused
	Evicted      *obs.Counter // pending intervals dropped oldest-first
	PullRetries  *obs.Counter // pull rounds after the first
	BreakerOpen  *obs.Gauge   // registrants currently excluded from pulls
	BreakerOpens *obs.Counter // closed→open transitions
}

// DownstreamConfig parameterises the downstream half.
type DownstreamConfig struct {
	Params
	// RequireAll makes the required flow set [0, NumFlows) instead of empty.
	// A required flow must be present in every completed interval (reported,
	// or cache-filled under Degraded) and covered by every pull; a flow that
	// is not required matters only while a live registrant owns it.
	RequireAll bool
	// FetchTimeout bounds one pull round (default 5s). FetchRetries is the
	// number of further rounds, each re-asking only the owners of flows still
	// uncovered, after a pause that starts at FetchBackoff (default 50ms) and
	// doubles, jittered, up to FetchBackoffMax (default 1s).
	FetchTimeout    time.Duration
	FetchRetries    int
	FetchBackoff    time.Duration
	FetchBackoffMax time.Duration
	// BreakerThreshold opens a registrant's circuit breaker after that many
	// consecutive pull failures (send error, invalid report, timeout); open
	// registrants are skipped until BreakerCooldown elapses, then probed
	// once. 0 selects 3, negative disables; the cooldown defaults to 5s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	Degraded         DegradedPolicy
	// MaxPending bounds partially reported intervals (default 64).
	MaxPending int
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

type response struct {
	conn *transport.Conn
	r    *transport.SketchResponse
}

// Downstream is the half of a tier that faces its registrants.
type Downstream struct {
	cfg  DownstreamConfig
	log  *slog.Logger
	done chan struct{}

	mu      sync.Mutex
	server  *transport.Server
	closed  bool
	regs    map[*transport.Conn]*registrant
	owner   []*registrant // per flow; nil = unowned
	pending map[int64]*accum
	rounds  map[uint64]chan response
	nextReq uint64
	// breakers and cache are keyed by registrant ID, so they survive a
	// reconnect under the same identity.
	breakers map[string]*breakerState
	cache    map[string]core.SketchReport
	// lastVol/lastVolAt hold each flow's most recent reported volume;
	// lastVolAt is -1 until first seen. lastInterval is the newest interval
	// any volume report named.
	lastVol      []float64
	lastVolAt    []int64
	lastInterval int64
	rng          *rand.Rand
}

// NewDownstream applies the defaults and builds the half (not yet listening).
func NewDownstream(cfg DownstreamConfig) *Downstream {
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 5 * time.Second
	}
	if cfg.FetchBackoff <= 0 {
		cfg.FetchBackoff = 50 * time.Millisecond
	}
	if cfg.FetchBackoffMax <= 0 {
		cfg.FetchBackoffMax = time.Second
	}
	if cfg.FetchBackoffMax < cfg.FetchBackoff {
		cfg.FetchBackoffMax = cfg.FetchBackoff
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 64
	}
	if cfg.Log == nil {
		cfg.Log = obs.Nop()
	}
	lastVolAt := make([]int64, cfg.NumFlows)
	for i := range lastVolAt {
		lastVolAt[i] = -1
	}
	return &Downstream{
		cfg:       cfg,
		log:       cfg.Log,
		done:      make(chan struct{}),
		regs:      make(map[*transport.Conn]*registrant),
		owner:     make([]*registrant, cfg.NumFlows),
		pending:   make(map[int64]*accum),
		rounds:    make(map[uint64]chan response),
		breakers:  make(map[string]*breakerState),
		cache:     make(map[string]core.SketchReport),
		lastVol:   make([]float64, cfg.NumFlows),
		lastVolAt: lastVolAt,
		// Seeded so chaos tests see reproducible backoff jitter.
		rng: rand.New(rand.NewSource(int64(cfg.Seed) + 1)),
	}
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
// sends were attempted and how many succeeded.
func (d *Downstream) Broadcast(env transport.Envelope) (attempted, delivered int) {
	d.mu.Lock()
	conns := make([]*transport.Conn, 0, len(d.regs))
	for c := range d.regs {
		conns = append(conns, c)
	}
	d.mu.Unlock()
	for _, c := range conns {
		if c.Send(env) == nil {
			delivered++
		}
	}
	return len(conns), delivered
}

// Handle owns one registrant connection: the Hello handshake, then volume
// reports, sketch responses and repeat Hellos until the link dies. Serve
// installs it on every accepted connection; tests drive it over pipes.
func (d *Downstream) Handle(conn *transport.Conn) {
	env, err := conn.Recv()
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
	for {
		env, err := conn.Recv()
		if err != nil {
			return
		}
		switch {
		case env.Volume != nil:
			d.addVolumes(conn, env.Volume)
		case env.Response != nil:
			d.routeResponse(conn, env.Response)
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

// hello registers conn and settles the ownership change, or rejects it.
func (d *Downstream) hello(conn *transport.Conn, h *transport.Hello, first bool) bool {
	if err := d.register(conn, h); err != nil {
		d.cfg.Metrics.Rejected.Inc()
		d.log.Warn("registration rejected", "peer", h.MonitorID, "err", err)
		_ = conn.Send(transport.Envelope{Error: &transport.ProtocolError{Msg: err.Error()}})
		return false
	}
	if first && d.cfg.OnJoin != nil {
		d.cfg.OnJoin(conn)
	}
	d.settle()
	return true
}

// register validates a Hello against the deployment parameters and claims
// its flows. A repeat Hello first releases the connection's old claim, so a
// shrinking union frees its flows; a rejected one leaves it unregistered.
func (d *Downstream) register(conn *transport.Conn, h *transport.Hello) error {
	p := d.cfg.Params
	switch {
	case h.Family != p.Family:
		return fmt.Errorf("%w: peer %q runs sketcher family %v, want %v", ErrConfig, h.MonitorID, h.Family, p.Family)
	case h.SketchLen != p.SketchLen:
		return fmt.Errorf("%w: peer %q sketch length %d, want %d", ErrConfig, h.MonitorID, h.SketchLen, p.SketchLen)
	case h.WindowLen != p.WindowLen:
		return fmt.Errorf("%w: peer %q window %d, want %d", ErrConfig, h.MonitorID, h.WindowLen, p.WindowLen)
	case p.Family == sketch.FamilyRandProj && h.Seed != p.Seed:
		// Only randproj carries shared randomness; FD peers announce 0.
		return fmt.Errorf("%w: peer %q seed mismatch", ErrConfig, h.MonitorID)
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
		if item, ok := d.tryCompleteLocked(iv, acc); ok {
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
// registered ID, and entries naming a flow another live registrant owns are
// skipped. Flows nobody owns are accepted — a mid tier legitimately forwards
// what a monitor reported before it died.
func (d *Downstream) addVolumes(conn *transport.Conn, v *transport.VolumeReport) {
	if len(v.FlowIDs) != len(v.Volumes) {
		return // malformed; drop
	}
	m := d.cfg.NumFlows
	d.mu.Lock()
	from := d.regs[conn]
	if from == nil || v.MonitorID != from.id {
		d.mu.Unlock()
		d.log.Warn("volume report under a foreign identity dropped", "claimed", v.MonitorID)
		return
	}
	if v.Interval > d.lastInterval {
		d.lastInterval = v.Interval
	}
	acc := d.pending[v.Interval]
	if acc == nil {
		if len(d.pending) >= d.cfg.MaxPending {
			var oldest int64 = 1<<63 - 1
			for iv := range d.pending {
				if iv < oldest {
					oldest = iv
				}
			}
			delete(d.pending, oldest)
			d.cfg.Metrics.Evicted.Inc()
		}
		acc = &accum{volumes: make([]float64, m), seen: make([]bool, m)}
		d.pending[v.Interval] = acc
	}
	for i, f := range v.FlowIDs {
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
	item, complete := d.tryCompleteLocked(v.Interval, acc)
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

// routeResponse hands a sketch response to the pull round waiting for it,
// tagged with the connection it arrived on. A response to a round that is
// over (its ID was retired) is dropped.
func (d *Downstream) routeResponse(conn *transport.Conn, r *transport.SketchResponse) {
	d.mu.Lock()
	ch := d.rounds[r.RequestID]
	d.mu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- response{conn, r}:
	default:
	}
}
