// Package agg implements the mid-tier aggregator of the federated topology:
// a daemon that owns one shard of the flow space, fronting a set of local
// monitors exactly like a NOC (registrations, volume reports, sketch pulls)
// while presenting itself to the real NOC exactly like one big monitor. It is
// both halves of internal/tier — a Downstream below, an Uplink above — joined
// by a sink that forwards each completed interval as one merged volume report
// and answers each upstream pull with one sketch.MergeColumns of a downstream pull.
//
// The tier rests on sketch linearity (Theorem 1): Ẑ = (1/√l)·RᵀY is linear
// in the data, so sketches over disjoint flow shards merge losslessly by
// column union (randproj) or with a composed deterministic bound (FD, see
// sketch.MergeColumns). The root NOC's fetch path, circuit breakers, degraded mode
// and tracing all work unchanged because the aggregator speaks the existing
// monitor wire protocol, only tagging its Hello with transport.RoleAggregator
// — and its own are the same code.
//
// Fault model: a dead downstream monitor is served from the tier's sketch
// cache by the NOC's rule (the response is tagged Degraded/StaleFlows, which
// the NOC folds into core.Fetch); a dead aggregator's monitors re-place
// themselves onto surviving candidates via the ShardMap it pushed
// (Rendezvous), and the survivor re-announces its grown flow union with a
// repeat Hello on its live NOC connection.
package agg

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"streampca/internal/core"
	"streampca/internal/obs"
	"streampca/internal/sketch"
	"streampca/internal/tier"
	"streampca/internal/transport"
)

// ErrConfig indicates an invalid service configuration.
var ErrConfig = errors.New("agg: invalid configuration")

// Config parameterizes an aggregator service.
type Config struct {
	// ID names the aggregator; it is the MonitorID the NOC sees.
	ID string
	// Family, NumFlows, WindowLen, SketchLen and Seed are the protocol
	// parameters (core.Params); monitors are validated against them on
	// registration exactly as the NOC would. SketchLen carries the family's
	// sketch parameter (l for randproj, the basis budget ℓ for FD). Left all
	// zero, ConnectNOC adopts the NOC's announcement, which the
	// service then announces to its monitors; it cannot Serve before.
	Family    sketch.Family
	NumFlows  int
	WindowLen int
	SketchLen int
	Seed      uint64
	// Peers is the full list of aggregator candidate addresses fronting the
	// same NOC (including this one's advertised address). It is pushed to
	// every registering monitor as a transport.ShardMap so monitors can
	// re-place themselves when this aggregator dies. Empty disables the
	// push (single-aggregator or test topologies).
	Peers []string
	// ShardEpoch versions the pushed map; monitors keep the highest epoch
	// seen. Defaults to 1 when Peers is set.
	ShardEpoch uint64
	// Pull paces the downstream sketch pulls (tier.PullPolicy); unset fields
	// take tier.AggPull's.
	Pull tier.PullPolicy
	// Degraded is the NOC's rule (tier.DegradedPolicy): an unresponsive
	// monitor's cached sketches stand in for it in the merge.
	Degraded tier.DegradedPolicy
	// Redial redials the NOC link when it drops (tier.RedialPolicy). Unlike
	// a leaf monitor, an aggregator retries even after an explicit NOC
	// rejection: a flow-claim conflict during a re-shard clears once the
	// stale owner drops.
	Redial tier.RedialPolicy
	// Obs is the metrics registry the service instruments into; nil creates
	// a private registry. Log receives structured logs; nil discards.
	Obs *obs.Registry
	Log *slog.Logger
	// MetricsAddr, when non-empty, serves /metrics and /healthz for this
	// aggregator's registry until Close.
	MetricsAddr string
}

// metrics is the aggregator's instrumentation surface, under streampca_agg_.
type metrics struct {
	monitors       *obs.Gauge
	rejects        *obs.Counter
	volumeForwards *obs.Counter
	intervalDrops  *obs.Counter
	fetches        *obs.Counter
	fetchRetries   *obs.Counter
	breakerOpen    *obs.Gauge
	breakerOpens   *obs.Counter
	mergeErrors    *obs.Counter
	degradedMerges *obs.Counter
	staleFlows     *obs.Gauge
	alarmsRelayed  *obs.Counter
	rehellos       *obs.Counter
	reconnects     *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		monitors: reg.Gauge("streampca_agg_monitors_connected",
			"Currently registered downstream monitors."),
		rejects: reg.Counter("streampca_agg_registrations_rejected_total",
			"Monitor registrations refused (config or flow-ownership conflicts)."),
		volumeForwards: reg.Counter("streampca_agg_volume_forwards_total",
			"Merged per-interval volume reports forwarded to the NOC."),
		intervalDrops: reg.Counter("streampca_agg_interval_drops_total",
			"Partially-reported intervals evicted by the pending bound."),
		fetches: reg.Counter("streampca_agg_fetches_served_total",
			"Upstream sketch pulls answered with a merged snapshot."),
		fetchRetries: reg.Counter("streampca_agg_fetch_retries_total",
			"Extra downstream pull rounds after an incomplete first round."),
		breakerOpen: reg.Gauge("streampca_agg_breaker_open",
			"Monitors currently excluded from downstream pulls by an open circuit breaker."),
		breakerOpens: reg.Counter("streampca_agg_breaker_opens_total",
			"Circuit-breaker open transitions (consecutive-failure threshold crossed)."),
		mergeErrors: reg.Counter("streampca_agg_merge_errors_total",
			"Sketch merges that failed validation (no response sent upstream)."),
		degradedMerges: reg.Counter("streampca_agg_degraded_merges_total",
			"Merged responses that substituted cached snapshots for unresponsive monitors."),
		staleFlows: reg.Gauge("streampca_agg_stale_flows",
			"Flows served from the snapshot cache in the most recent merge."),
		alarmsRelayed: reg.Counter("streampca_agg_alarms_relayed_total",
			"NOC alarm broadcasts re-broadcast to downstream monitors."),
		rehellos: reg.Counter("streampca_agg_rehellos_total",
			"Flow-union re-announcements sent on the live NOC connection."),
		reconnects: reg.Counter("streampca_agg_reconnects_total",
			"Successful automatic redials after the NOC link dropped."),
	}
}

// Service is a mid-tier aggregator. Create with New, expose to monitors with
// Serve, wire upstream with ConnectNOC, stop with Close.
type Service struct {
	cfg     Config
	log     *slog.Logger
	reg     *obs.Registry
	health  *obs.Health
	met     *metrics
	wireMet *transport.Metrics
	diag    *obs.Server
	up      *tier.Uplink
	// down faces the monitors. Before the parameters are known it is an
	// empty stand-in; adopting them swaps in the real one.
	down atomic.Pointer[tier.Downstream]

	// pulls tracks the goroutines answering upstream sketch pulls.
	pulls sync.WaitGroup

	mu sync.Mutex // guards cfg.Peers and cfg.ShardEpoch

	// fwd is the merged volume report forwardVolumes refills and sends for
	// every completed interval; fwdMu serializes the monitors' readers on it.
	fwdMu sync.Mutex
	fwd   transport.VolumeReport
	// resp is the answer serveFetch merges every downstream pull into and
	// sends upstream; respMu serializes overlapping pulls from the merge to
	// the send.
	respMu sync.Mutex
	resp   transport.SketchResponse
}

// New validates cfg and builds the service.
func New(cfg Config) (*Service, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("%w: empty aggregator id", ErrConfig)
	}
	p := core.Params{Family: cfg.Family, NumFlows: cfg.NumFlows, WindowLen: cfg.WindowLen, SketchLen: cfg.SketchLen, Seed: cfg.Seed}
	if err := p.Validate(); err != nil && p != (core.Params{}) {
		return nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	if cfg.ShardEpoch == 0 {
		cfg.ShardEpoch = 1
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	log := cfg.Log
	if log == nil {
		log = obs.Nop()
	}
	s := &Service{
		cfg:     cfg,
		log:     log.With("agg", cfg.ID),
		reg:     reg,
		health:  obs.NewHealth(),
		met:     newMetrics(reg),
		wireMet: transport.NewMetrics(reg),
	}
	if err := s.build(p); err != nil {
		return nil, err
	}
	s.up = tier.NewUplink(tier.UplinkConfig{
		ID:    cfg.ID,
		Hello: s.hello,
		Adopt: s.build,
		OnRequest: func(c *transport.Conn, req transport.SketchRequest, tc *transport.TraceContext) {
			s.pulls.Add(1)
			go s.serveFetch(c, req, tc)
		},
		OnAlarm: s.relayAlarm,
		Redial:  cfg.Redial,
		// A rejection here is a flow-claim conflict during a re-shard; it
		// clears once the NOC drops the stale owner.
		RetryRejected: true,
		WireMetrics:   s.wireMet,
		Reconnects:    s.met.reconnects,
		Health:        s.health,
		Log:           s.log,
	})
	s.health.Set("agg", obs.StatusOK, "ready")
	if cfg.MetricsAddr != "" {
		diag, err := obs.StartServer(cfg.MetricsAddr, reg, s.health, s.log)
		if err != nil {
			return nil, err
		}
		s.diag = diag
	}
	return s, nil
}

// build makes the downstream half under p.
func (s *Service) build(p core.Params) error {
	foreign, mismatch := tier.DroppedReports(s.reg, "streampca_agg_volume_reports_dropped_total")
	raw, sums, delta := tier.PulledColumns(s.reg, "streampca_agg_pulled_columns_total")
	down, err := tier.NewDownstream(tier.DownstreamConfig{
		Params:       p,
		Pull:         s.cfg.Pull,
		PullDefaults: tier.AggPull,
		Degraded:     s.cfg.Degraded,
		WireMetrics:  s.wireMet,
		Metrics: tier.Metrics{
			Registrants:     s.met.monitors,
			Rejected:        s.met.rejects,
			Evicted:         s.met.intervalDrops,
			PullRetries:     s.met.fetchRetries,
			BreakerOpen:     s.met.breakerOpen,
			BreakerOpens:    s.met.breakerOpens,
			DroppedForeign:  foreign,
			DroppedMismatch: mismatch,
			PulledRaw:       raw,
			PulledSums:      sums,
			PulledDelta:     delta,
		},
		Log:        s.log,
		OnInterval: s.forwardVolumes,
		OnJoin:     s.pushShardMap,
		OnChange:   s.announce,
	})
	if err != nil {
		return fmt.Errorf("%w: %w", ErrConfig, err)
	}
	s.down.Store(down)
	return nil
}

// Registry exposes the metrics registry (shared when Config.Obs was set).
func (s *Service) Registry() *obs.Registry { return s.reg }

// ID returns the aggregator's identifier.
func (s *Service) ID() string { return s.cfg.ID }

// Serve starts accepting downstream monitor connections on addr; it fails
// before the protocol parameters are known.
func (s *Service) Serve(addr string) error {
	down := s.down.Load()
	if down.Params().WindowLen == 0 {
		return fmt.Errorf("%w: no protocol parameters before ConnectNOC", ErrConfig)
	}
	if err := down.Serve(addr); err != nil {
		return err
	}
	s.log.Info("aggregator listening", "addr", down.Addr(), "params", down.Params())
	return nil
}

// Params returns the protocol parameters, zero before they are known.
func (s *Service) Params() core.Params { return s.down.Load().Params() }

// Addr returns the downstream listen address ("" before Serve).
func (s *Service) Addr() string { return s.down.Load().Addr() }

// Monitors lists the registered downstream monitor IDs, sorted.
func (s *Service) Monitors() []string { return s.down.Load().IDs() }

// FlowUnion returns the sorted union of registered monitors' flows — the
// shard this aggregator currently announces upstream.
func (s *Service) FlowUnion() []int { return s.down.Load().OwnedFlows() }

// ConnectNOC dials the NOC, announces the current flow union with a
// Role-tagged Hello and starts serving its sketch pulls; without parameters
// it first adopts the NOC's. With Config.Redial, a later link loss redials
// automatically.
func (s *Service) ConnectNOC(addr string, timeout time.Duration) error {
	return s.up.Connect(addr, timeout)
}

// AttachNOC adopts an established upstream connection (tests, embedders).
func (s *Service) AttachNOC(conn *transport.Conn) error { return s.up.Attach(conn) }

// hello builds the upstream registration for the current flow union, which
// states no parameters while they are unknown.
func (s *Service) hello() transport.Hello {
	down := s.down.Load()
	return tier.Stated(down.Params(), transport.Hello{MonitorID: s.cfg.ID, FlowIDs: down.OwnedFlows(), Role: transport.RoleAggregator})
}

// announce re-sends the Hello on the live upstream connection after the
// registrant set changed (the NOC treats a repeat Hello as re-registration).
func (s *Service) announce() {
	if s.up.Announce() {
		s.met.rehellos.Inc()
	}
}

// SetPeers replaces the aggregator-candidate list pushed to monitors, for
// embedders whose listen addresses are only known after Serve (dynamic
// ports). Already-registered monitors receive the new map immediately.
func (s *Service) SetPeers(peers []string, epoch uint64) {
	s.mu.Lock()
	s.cfg.Peers = append([]string(nil), peers...)
	s.cfg.ShardEpoch = epoch
	s.mu.Unlock()
	if sm := s.shardMap(); sm != nil {
		s.down.Load().Broadcast(transport.Envelope{Shards: sm})
	}
}

// shardMap snapshots the candidate list, nil when there is none to push.
func (s *Service) shardMap() *transport.ShardMap {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cfg.Peers) == 0 {
		return nil
	}
	return &transport.ShardMap{Aggregators: append([]string(nil), s.cfg.Peers...), Epoch: s.cfg.ShardEpoch}
}

// pushShardMap sends the aggregator-candidate list to a newly registered
// monitor so it can re-place itself if this aggregator dies.
func (s *Service) pushShardMap(conn *transport.Conn) {
	sm := s.shardMap()
	if sm == nil {
		return
	}
	if err := conn.Send(transport.Envelope{Shards: sm}); err != nil {
		s.log.Warn("shard map push failed", "err", err)
	}
}

// forwardVolumes sends one merged VolumeReport upstream for an interval in
// which every currently-owned flow has reported, refilling one report, and
// then hands the interval's arrays back to the tier. The report's flow list
// goes implicit only when it is the union the NOC link last announced
// (tier.Uplink.SendVolume): a same-size union swap must not reattribute it.
func (s *Service) forwardVolumes(iv tier.Interval) {
	defer s.down.Load().ReleaseInterval(iv)
	if s.up.Conn() == nil {
		return
	}
	s.fwdMu.Lock()
	defer s.fwdMu.Unlock()
	rep := &s.fwd
	rep.MonitorID, rep.Interval = s.cfg.ID, iv.Index
	rep.FlowIDs, rep.Volumes = rep.FlowIDs[:0], rep.Volumes[:0]
	for f, seen := range iv.Seen {
		if seen {
			rep.FlowIDs = append(rep.FlowIDs, f)
			rep.Volumes = append(rep.Volumes, iv.Volumes[f])
		}
	}
	if err := s.up.SendVolume(transport.Envelope{Volume: rep}); err != nil {
		s.log.Warn("volume forward failed", "interval", rep.Interval, "err", err)
		return
	}
	s.met.volumeForwards.Inc()
}

// serveFetch answers one upstream sketch pull: one tier relay of it to the
// registered monitors (retry rounds, breaker and, under the degraded policy,
// cache substitution; delta columns as they came), merged into the one
// response the service keeps and sent; the pull is released after the send.
func (s *Service) serveFetch(up *transport.Conn, req transport.SketchRequest, tc *transport.TraceContext) {
	defer s.pulls.Done()
	down, upReqID := s.down.Load(), req.RequestID
	p := down.Relay(req.Since, tc)
	defer down.Release(p)
	if len(p.Reports) == 0 {
		s.log.Warn("sketch pull unanswerable: no live or cached snapshots", "request", upReqID)
		return
	}
	s.respMu.Lock()
	defer s.respMu.Unlock()
	resp := &s.resp
	if err := sketch.MergeColumnsInto(&resp.Report, p.Reports, down.Params().SketchLen); err != nil {
		s.met.mergeErrors.Inc()
		s.log.Warn("sketch merge failed", "request", upReqID, "inputs", len(p.Reports), "err", err)
		return
	}
	s.met.fetches.Inc()
	s.met.staleFlows.Set(float64(p.Filled))
	if p.Filled > 0 {
		s.met.degradedMerges.Inc()
		s.log.Warn("degraded merge", "request", upReqID, "stale_flows", p.Filled)
	}
	resp.RequestID, resp.MonitorID = upReqID, s.cfg.ID
	resp.Degraded, resp.StaleFlows = p.Degraded, p.Stale
	if err := up.Send(transport.Envelope{Response: resp, Trace: tc}); err != nil {
		s.log.Warn("merged response send failed", "request", upReqID, "err", err)
	}
	if resp.Report.Family == sketch.FamilyFD {
		// FD's merge builds its own buffer each time: keeping the last one
		// would only hold memory.
		resp.Report = core.SketchReport{}
	}
}

// relayAlarm re-broadcasts a NOC alarm to every downstream monitor.
func (s *Service) relayAlarm(a transport.Alarm, tc *transport.TraceContext) {
	_, delivered := s.down.Load().Broadcast(transport.Envelope{Alarm: &a, Trace: tc})
	s.met.alarmsRelayed.Add(int64(delivered))
}

// LogSummary emits the one-line slog summary the daemon prints periodically:
// every unlabeled counter and gauge of the registry.
func (s *Service) LogSummary() {
	s.log.Info("aggregator stats", s.reg.LogArgs()...)
}

// Close tears down the NOC link, the downstream server and the diagnostics
// endpoint, and waits for the link reader and the pulls in flight. The link
// goes first so nothing the departing monitors trigger is sent upstream.
// Safe to call multiple times.
func (s *Service) Close() error {
	err := s.up.Close()
	s.down.Load().Shutdown()
	s.up.Wait()
	s.pulls.Wait()
	if s.diag != nil {
		_ = s.diag.Close()
	}
	s.health.Set("agg", obs.StatusDown, "closed")
	return err
}
