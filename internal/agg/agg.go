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
// Fault model: a dead downstream monitor is served from the tier's report
// cache (the response is tagged Degraded/StaleFlows, which the NOC folds into
// core.Fetch); a dead aggregator's monitors re-place themselves onto
// surviving candidates via the ShardMap it pushed (Rendezvous), and the
// survivor re-announces its grown flow union with a repeat Hello on its live
// NOC connection.
package agg

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"streampca/internal/obs"
	"streampca/internal/sketch"
	"streampca/internal/tier"
	"streampca/internal/transport"
)

// ErrConfig indicates an invalid service configuration.
var ErrConfig = errors.New("agg: invalid configuration")

// DegradedPolicy mirrors the NOC's: substitute an unresponsive monitor's
// cached snapshot into the merge when it is no staler than MaxStaleness
// intervals (symmetric distance) from the fetch reference point.
type DegradedPolicy = tier.DegradedPolicy

// Config parameterizes an aggregator service.
type Config struct {
	// ID names the aggregator; it is the MonitorID the NOC sees.
	ID string
	// Family, NumFlows, WindowLen, SketchLen and Seed must agree with the
	// NOC's detector configuration; monitors are validated against them on
	// registration exactly as the NOC would. SketchLen carries the family's
	// sketch parameter (l for randproj, the basis budget ℓ for FD).
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
	// FetchTimeout bounds one downstream sketch-pull round (default 2s);
	// FetchRetries extra rounds re-ask only the missing monitors, with
	// capped exponential backoff between rounds (defaults 0, 50ms, 1s).
	FetchTimeout    time.Duration
	FetchRetries    int
	FetchBackoff    time.Duration
	FetchBackoffMax time.Duration
	// Degraded controls cached-snapshot substitution for unresponsive
	// monitors.
	Degraded DegradedPolicy
	// MaxPendingIntervals bounds partially-reported intervals held for the
	// merged volume forward (default 8; oldest is dropped).
	MaxPendingIntervals int
	// Reconnect enables automatic redial of the NOC link with capped
	// exponential backoff (defaults 200ms, 5s). Unlike a leaf monitor, an
	// aggregator retries even after an explicit NOC rejection: a flow-claim
	// conflict during a re-shard clears once the stale owner drops.
	Reconnect           bool
	ReconnectBackoff    time.Duration
	ReconnectBackoffMax time.Duration
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
	health  *obs.Health
	met     *metrics
	wireMet *transport.Metrics
	diag    *obs.Server
	down    *tier.Downstream
	up      *tier.Uplink

	// pulls tracks the goroutines answering upstream sketch pulls.
	pulls sync.WaitGroup

	mu sync.Mutex // guards cfg.Peers and cfg.ShardEpoch
}

// New validates cfg and builds the service.
func New(cfg Config) (*Service, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("%w: empty aggregator id", ErrConfig)
	}
	if cfg.Family != sketch.FamilyRandProj && cfg.Family != sketch.FamilyFD {
		return nil, fmt.Errorf("%w: unknown sketcher family %v", ErrConfig, cfg.Family)
	}
	if cfg.NumFlows < 1 {
		return nil, fmt.Errorf("%w: %d flows", ErrConfig, cfg.NumFlows)
	}
	if cfg.WindowLen < 1 {
		return nil, fmt.Errorf("%w: window length %d", ErrConfig, cfg.WindowLen)
	}
	if cfg.SketchLen < 1 {
		return nil, fmt.Errorf("%w: sketch parameter %d", ErrConfig, cfg.SketchLen)
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 2 * time.Second
	}
	if cfg.FetchRetries < 0 {
		return nil, fmt.Errorf("%w: %d fetch retries", ErrConfig, cfg.FetchRetries)
	}
	if cfg.MaxPendingIntervals <= 0 {
		cfg.MaxPendingIntervals = 8
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
		health:  obs.NewHealth(),
		met:     newMetrics(reg),
		wireMet: transport.NewMetrics(reg),
	}
	s.down = tier.NewDownstream(tier.DownstreamConfig{
		Params: tier.Params{
			Family:    cfg.Family,
			NumFlows:  cfg.NumFlows,
			WindowLen: cfg.WindowLen,
			SketchLen: cfg.SketchLen,
			Seed:      cfg.Seed,
		},
		FetchTimeout:    cfg.FetchTimeout,
		FetchRetries:    cfg.FetchRetries,
		FetchBackoff:    cfg.FetchBackoff,
		FetchBackoffMax: cfg.FetchBackoffMax,
		Degraded:        cfg.Degraded,
		MaxPending:      cfg.MaxPendingIntervals,
		WireMetrics:     s.wireMet,
		Metrics: tier.Metrics{
			Registrants:  s.met.monitors,
			Rejected:     s.met.rejects,
			Evicted:      s.met.intervalDrops,
			PullRetries:  s.met.fetchRetries,
			BreakerOpen:  s.met.breakerOpen,
			BreakerOpens: s.met.breakerOpens,
		},
		Log:        s.log,
		OnInterval: s.forwardVolumes,
		OnJoin:     s.pushShardMap,
		OnChange:   s.announce,
	})
	s.up = tier.NewUplink(tier.UplinkConfig{
		ID:    cfg.ID,
		Hello: s.hello,
		OnRequest: func(c *transport.Conn, req transport.SketchRequest, tc *transport.TraceContext) {
			s.pulls.Add(1)
			go s.serveFetch(c, req.RequestID, tc)
		},
		OnAlarm:    s.relayAlarm,
		Reconnect:  cfg.Reconnect,
		Backoff:    cfg.ReconnectBackoff,
		BackoffMax: cfg.ReconnectBackoffMax,
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

// ID returns the aggregator's identifier.
func (s *Service) ID() string { return s.cfg.ID }

// Serve starts accepting downstream monitor connections on addr.
func (s *Service) Serve(addr string) error {
	if err := s.down.Serve(addr); err != nil {
		return err
	}
	s.log.Info("aggregator listening", "addr", s.down.Addr())
	return nil
}

// Addr returns the downstream listen address ("" before Serve).
func (s *Service) Addr() string { return s.down.Addr() }

// Monitors lists the registered downstream monitor IDs, sorted.
func (s *Service) Monitors() []string { return s.down.IDs() }

// FlowUnion returns the sorted union of registered monitors' flows — the
// shard this aggregator currently announces upstream.
func (s *Service) FlowUnion() []int { return s.down.OwnedFlows() }

// ConnectNOC dials the NOC, announces the current flow union with a
// Role-tagged Hello and starts serving its sketch pulls. With
// Config.Reconnect, a later link loss redials automatically.
func (s *Service) ConnectNOC(addr string, timeout time.Duration) error {
	return s.up.Connect(addr, timeout)
}

// AttachNOC adopts an established upstream connection (tests, embedders).
func (s *Service) AttachNOC(conn *transport.Conn) error { return s.up.Attach(conn) }

// hello builds the upstream announcement for the current flow union.
func (s *Service) hello() transport.Hello {
	h := transport.Hello{
		MonitorID: s.cfg.ID,
		FlowIDs:   s.down.OwnedFlows(),
		SketchLen: s.cfg.SketchLen,
		WindowLen: s.cfg.WindowLen,
		Family:    s.cfg.Family,
		Role:      transport.RoleAggregator,
	}
	if s.cfg.Family == sketch.FamilyRandProj {
		h.Seed = s.cfg.Seed
	}
	return h
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
		s.down.Broadcast(transport.Envelope{Shards: sm})
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
// which every currently-owned flow has reported.
func (s *Service) forwardVolumes(iv tier.Interval) {
	up := s.up.Conn()
	if up == nil {
		return
	}
	rep := transport.VolumeReport{MonitorID: s.cfg.ID, Interval: iv.Index}
	for f, seen := range iv.Seen {
		if seen {
			rep.FlowIDs = append(rep.FlowIDs, f)
			rep.Volumes = append(rep.Volumes, iv.Volumes[f])
		}
	}
	if err := up.Send(transport.Envelope{Volume: &rep}); err != nil {
		s.log.Warn("volume forward failed", "interval", rep.Interval, "err", err)
		return
	}
	s.met.volumeForwards.Inc()
}

// serveFetch answers one upstream sketch pull: pull the registered monitors
// (retry rounds and breaker in the tier), substitute cached snapshots for
// the unresponsive under the degraded policy, merge, and send one response.
func (s *Service) serveFetch(up *transport.Conn, upReqID uint64, tc *transport.TraceContext) {
	defer s.pulls.Done()
	p := s.down.Pull(nil, tc)
	stale, _ := s.down.FillCached(p)
	if len(p.Reports) == 0 {
		s.log.Warn("sketch pull unanswerable: no live or cached snapshots", "request", upReqID)
		return
	}
	snaps := make([]sketch.Snapshot, 0, len(p.Reports))
	for _, rep := range p.Reports {
		snaps = append(snaps, rep)
	}
	merged, err := sketch.MergeColumns(snaps, s.cfg.SketchLen)
	if err != nil {
		s.met.mergeErrors.Inc()
		s.log.Warn("sketch merge failed", "request", upReqID, "inputs", len(snaps), "err", err)
		return
	}
	s.met.fetches.Inc()
	s.met.staleFlows.Set(float64(stale))
	if stale > 0 {
		s.met.degradedMerges.Inc()
		s.log.Warn("degraded merge", "request", upReqID, "stale_flows", stale)
	}
	// Degradation the answers themselves declared (a tier below serving from
	// its own cache) composes with this tier's substitutions.
	resp := transport.SketchResponse{
		RequestID:  upReqID,
		MonitorID:  s.cfg.ID,
		Report:     merged,
		Degraded:   stale > 0 || p.Degraded,
		StaleFlows: stale + p.Stale,
	}
	if err := up.Send(transport.Envelope{Response: &resp, Trace: tc}); err != nil {
		s.log.Warn("merged response send failed", "request", upReqID, "err", err)
	}
}

// relayAlarm re-broadcasts a NOC alarm to every downstream monitor.
func (s *Service) relayAlarm(a transport.Alarm, tc *transport.TraceContext) {
	_, delivered := s.down.Broadcast(transport.Envelope{Alarm: &a, Trace: tc})
	s.met.alarmsRelayed.Add(int64(delivered))
}

// Stats is a snapshot of the aggregator's counters for periodic summaries.
type Stats struct {
	Monitors       int
	VolumeForwards int64
	Fetches        int64
	MergeErrors    int64
	DegradedMerges int64
	AlarmsRelayed  int64
	Reconnects     int64
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	return Stats{
		Monitors:       len(s.down.IDs()),
		VolumeForwards: s.met.volumeForwards.Value(),
		Fetches:        s.met.fetches.Value(),
		MergeErrors:    s.met.mergeErrors.Value(),
		DegradedMerges: s.met.degradedMerges.Value(),
		AlarmsRelayed:  s.met.alarmsRelayed.Value(),
		Reconnects:     s.met.reconnects.Value(),
	}
}

// LogSummary emits the one-line slog summary the daemon prints periodically.
func (s *Service) LogSummary() {
	st := s.Stats()
	s.log.Info("aggregator stats",
		"monitors", st.Monitors,
		"volume_forwards", st.VolumeForwards,
		"fetches", st.Fetches,
		"merge_errors", st.MergeErrors,
		"degraded_merges", st.DegradedMerges,
		"alarms_relayed", st.AlarmsRelayed,
		"reconnects", st.Reconnects)
}

// Close tears down the NOC link, the downstream server and the diagnostics
// endpoint, and waits for the link reader and the pulls in flight. The link
// goes first so nothing the departing monitors trigger is sent upstream.
// Safe to call multiple times.
func (s *Service) Close() error {
	err := s.up.Close()
	s.down.Shutdown()
	s.up.Wait()
	s.pulls.Wait()
	if s.diag != nil {
		_ = s.diag.Close()
	}
	s.health.Set("agg", obs.StatusDown, "closed")
	return err
}
