// Package monitor implements the long-running local-monitor service of
// Fig. 1: it owns the per-flow sketch state (core.Monitor), pushes one
// volume report to the NOC per interval, and answers the NOC's sketch pulls.
//
// One duplex connection to the NOC carries everything: the monitor sends
// Hello then VolumeReports; the NOC sends SketchRequests, which the monitor
// answers with SketchResponses; Alarms may arrive for operator visibility.
// Everything about that link — dial, Hello, read loop, redial over the
// candidate list — is the uplink half of internal/tier.
package monitor

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"streampca/internal/core"
	"streampca/internal/obs"
	"streampca/internal/oracle"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
	"streampca/internal/tier"
	"streampca/internal/trace"
	"streampca/internal/transport"
)

// Errors returned by the package.
var (
	// ErrConfig indicates an invalid service configuration.
	ErrConfig = errors.New("monitor: invalid configuration")
	// ErrNotConnected indicates an operation requiring a live NOC link.
	ErrNotConnected = tier.ErrNotConnected
)

// Config parameterizes a monitor service.
type Config struct {
	// ID names the monitor (unique per deployment).
	ID string
	// Family selects the sketcher implementation; the zero value is the
	// paper's random projection.
	Family sketch.Family
	// FlowIDs lists the global flows this monitor measures.
	FlowIDs []int
	// WindowLen is n. WindowLen 0 leaves the protocol parameters to the
	// tier above: Connect, Place and Attach adopt its announcement (family,
	// n, l or ℓ and seed) and return once the sketch state is built. Family,
	// Sketch and FDEll are then ignored.
	WindowLen int
	// Epsilon is not read: variance histograms keep the exact window. It
	// stays because the benchmark (bench/) sets it.
	//
	// Deprecated: unread.
	Epsilon float64
	// Sketch's Seed and SketchLen are the shared random projection's, which
	// core.Params.Generator builds; its other field is not read.
	// Ignored for the FD family.
	Sketch randproj.Config
	// FDEll is the Frequent Directions basis budget ℓ (FD family only); 0
	// selects sketch.DefaultEll of the assigned flow count.
	FDEll int
	// OnAlarm, when set, is invoked for alarms pushed by the NOC. The
	// alarm's Identified array is reused for the next alarm: a callback that
	// keeps it past its return copies it.
	OnAlarm func(transport.Alarm)
	// Redial (tier.RedialPolicy), when enabled, redials after the NOC link
	// drops, resends Hello and resumes serving sketch pulls: over the
	// rendezvous-ordered candidate list when one is known (federated
	// failover; a rejection there is usually a transient re-shard
	// conflict), else the last address. Ineffective for Attach-ed
	// connections (there is no address to redial) and, with no candidate to
	// fail over to, after the NOC rejects the registration (retrying would
	// loop forever).
	Redial tier.RedialPolicy
	// Candidates pre-seeds the aggregator candidate list normally learned
	// from a transport.ShardMap push (epoch 0, so any pushed map replaces
	// it); Place walks it for the first registration.
	Candidates []string
	// SelfCheckEvery, when ≥ 1, enables the internal/oracle differential
	// validator: the service shadows every interval with an exact sliding
	// window per flow and every SelfCheckEvery-th interval checks the
	// histograms' coverage, stats and sketches against it, recording
	// streampca_monitor_oracle_* metrics and logging violations. Costs one
	// exact window of memory per flow plus an O(w·n·l) pass per sampled
	// interval; 0 (the default) disables. The checker reads per-flow
	// variance histograms, so it is randproj-only: setting it with the FD
	// family is a configuration error.
	SelfCheckEvery int
	// Obs is the metrics registry the service instruments into; nil creates
	// a private registry (instrumentation is always on — it is a handful of
	// atomic ops per interval, see BenchmarkInstrumentedSketchUpdate).
	Obs *obs.Registry
	// Log receives structured logs; nil discards them.
	Log *slog.Logger
	// MetricsAddr, when non-empty, serves /metrics, /healthz and
	// /debug/pprof on that address for this monitor's registry. The server
	// lives until Close. Empty (the default) opens no listener. With Trace
	// set it also serves the span ring on /debug/trace.
	MetricsAddr string
	// Trace, when non-nil, emits interval-lineage spans: one
	// "monitor.update" per ReportInterval (trace.ForInterval(t)) and one
	// "monitor.sketch_report" per served sketch pull, parented under the
	// NOC's fetch span via the envelope TraceContext. Nil (the default)
	// costs one pointer check per call site.
	Trace *trace.Tracer
	// FlightRecorder, when non-nil, appends one JSONL record per alarm
	// broadcast received from the NOC — the monitor-side half of the alarm
	// audit trail. Nil disables.
	FlightRecorder *trace.FlightRecorder
}

// metrics is the monitor's instrumentation surface. All names are under
// streampca_monitor_ and documented in README.md "Observability".
type metrics struct {
	// updateSeconds times the O(w·log n) per-interval sketch update.
	updateSeconds *obs.Histogram
	intervals     *obs.Counter
	reportErrors  *obs.Counter
	sketchReqs    *obs.Counter
	alarmsRecv    *obs.Counter
	// vhBuckets tracks the O(w·log² n) variance-histogram state size.
	vhBuckets    *obs.Gauge
	lastInterval *obs.Gauge
	// reconnects counts successful automatic redials of the NOC link.
	reconnects *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		updateSeconds: reg.Histogram("streampca_monitor_update_seconds",
			"Per-interval sketch-update latency (the paper's O(w log n) step).", nil),
		intervals: reg.Counter("streampca_monitor_intervals_total",
			"Intervals ingested via ReportInterval."),
		reportErrors: reg.Counter("streampca_monitor_report_errors_total",
			"Sketch updates or volume-report sends that failed."),
		sketchReqs: reg.Counter("streampca_monitor_sketch_requests_total",
			"Sketch pulls served to the NOC (§IV-C lazy protocol)."),
		alarmsRecv: reg.Counter("streampca_monitor_alarms_received_total",
			"Alarm broadcasts received from the NOC."),
		vhBuckets: reg.Gauge("streampca_monitor_vh_buckets",
			"Sketch state cells: window elements summed over assigned flows (randproj, at most w·n) or live FD buffer rows (≤ 2ℓ)."),
		lastInterval: reg.Gauge("streampca_monitor_last_interval",
			"Most recent interval folded into the sketch state."),
		reconnects: reg.Counter("streampca_monitor_reconnects_total",
			"Successful automatic redials after the NOC link dropped."),
	}
}

// Service is a local monitor. Create with New, wire with Connect (TCP) or
// Attach (an existing connection, e.g. an in-memory pipe), feed with
// ReportInterval, and stop with Close.
type Service struct {
	cfg Config
	log *slog.Logger

	reg     *obs.Registry
	health  *obs.Health
	met     *metrics
	wireMet *transport.Metrics
	diag    *obs.Server

	// up is the link to the NOC (or aggregator).
	up *tier.Uplink

	// flowIDs is the assignment, fixed at New; every volume report carries
	// it and nothing writes it.
	flowIDs []int

	// mu guards the sketch state: nil core and zero params until the
	// protocol parameters are known, which is before the link serves
	// anything.
	mu     sync.Mutex
	core   *core.Monitor
	oracle *oracle.Checker
	params core.Params

	// snap is the report every sketch pull is written into and sent from;
	// snapMu holds it from the snapshot until the send returns.
	snapMu sync.Mutex
	snap   core.SketchReport
}

// New validates cfg and builds the sketch state, or leaves it to the
// announcement when cfg.WindowLen is 0.
func New(cfg Config) (*Service, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("%w: empty monitor id", ErrConfig)
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
		log:     log.With("monitor", cfg.ID),
		reg:     reg,
		health:  obs.NewHealth(),
		met:     newMetrics(reg),
		wireMet: transport.NewMetrics(reg),
		flowIDs: append([]int(nil), cfg.FlowIDs...),
	}
	if cfg.WindowLen != 0 {
		p := core.Params{Family: cfg.Family, WindowLen: cfg.WindowLen, SketchLen: cfg.FDEll, Seed: cfg.Sketch.Seed}
		if cfg.Family == sketch.FamilyRandProj {
			p.SketchLen = cfg.Sketch.SketchLen
		}
		if err := s.build(p); err != nil {
			return nil, err
		}
	}
	s.up = tier.NewUplink(tier.UplinkConfig{
		ID:          cfg.ID,
		Hello:       s.hello,
		Adopt:       s.adopt,
		OnRequest:   s.serveSketch,
		OnAlarm:     s.alarm,
		Redial:      cfg.Redial,
		Candidates:  cfg.Candidates,
		WireMetrics: s.wireMet,
		Reconnects:  s.met.reconnects,
		Health:      s.health,
		Log:         s.log,
	})
	if cfg.MetricsAddr != "" {
		diag, err := obs.StartServerWith(cfg.MetricsAddr, reg, s.health, cfg.Trace.Recorder(), s.log)
		if err != nil {
			return nil, err
		}
		s.diag = diag
	}
	return s, nil
}

// build makes the sketch state under p.
func (s *Service) build(p core.Params) error {
	every := s.cfg.SelfCheckEvery
	if p.Family != sketch.FamilyRandProj && every > 0 {
		return fmt.Errorf("%w: the oracle self-check shadows variance histograms and only supports the randproj family", ErrConfig)
	}
	p = p.Resolve(len(s.flowIDs))
	cm, err := p.NewMonitor(s.flowIDs)
	if err != nil {
		return fmt.Errorf("core monitor: %w", err)
	}
	var chk *oracle.Checker
	if every > 0 {
		gen, err := p.Generator()
		if err != nil {
			return err
		}
		chk, err = oracle.NewChecker(oracle.CheckerConfig{
			Every:     every,
			WindowLen: p.WindowLen,
			Gen:       gen,
			NumFlows:  len(s.flowIDs),
			Component: "monitor",
			Log:       s.log,
			Reg:       s.reg,
		})
		if err != nil {
			return fmt.Errorf("oracle checker: %w", err)
		}
	}
	s.mu.Lock()
	s.core, s.oracle, s.params = cm, chk, p
	s.mu.Unlock()
	s.health.Set("monitor", obs.StatusOK, "sketch state ready")
	return nil
}

// adopt builds the sketch state under the announced parameters.
func (s *Service) adopt(p core.Params) error {
	if err := s.build(p); err != nil {
		return err
	}
	s.log.Info("adopted upstream parameters", "params", fmt.Sprintf("%+v", p))
	return nil
}

// Registry exposes the metrics registry (shared when Config.Obs was set).
func (s *Service) Registry() *obs.Registry { return s.reg }

// DiagAddr returns the diagnostics server address, or "" when disabled.
func (s *Service) DiagAddr() string {
	if s.diag == nil {
		return ""
	}
	return s.diag.Addr()
}

// ID returns the monitor's identifier.
func (s *Service) ID() string { return s.cfg.ID }

// Connect dials the NOC, performs the Hello handshake and starts serving
// sketch requests. With Config.Redial enabled, a later link loss redials
// automatically.
func (s *Service) Connect(nocAddr string, timeout time.Duration) error {
	return s.up.Connect(nocAddr, timeout)
}

// Place registers with the first reachable of Config.Candidates in this
// monitor's rendezvous order — the walk a redial makes — and returns its
// address.
func (s *Service) Place(timeout time.Duration) (string, error) {
	return s.up.Place(timeout)
}

// Attach adopts an established connection (used by tests and embedders),
// sends the Hello and starts the reader.
func (s *Service) Attach(conn *transport.Conn) error { return s.up.Attach(conn) }

// hello announces this monitor's flows and sketch parameters; before the
// sketch state exists it states neither.
func (s *Service) hello() transport.Hello {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.params.WindowLen != 0 {
		return tier.Stated(s.params, transport.Hello{MonitorID: s.cfg.ID, FlowIDs: s.flowIDs})
	}
	return transport.Hello{MonitorID: s.cfg.ID}
}

// serveSketch answers one sketch pull with the sketch state's SnapshotInto
// (core.Monitor.Report), or its delta since the interval the request names
// when it can give one, written into the service's one report.
func (s *Service) serveSketch(conn *transport.Conn, req transport.SketchRequest, tc *transport.TraceContext) {
	s.met.sketchReqs.Inc()
	// Parent the serving span under the NOC's fetch span when the request
	// carries a trace context (cross-process lineage).
	var sp *trace.Span
	if tc != nil {
		sp = s.cfg.Trace.Start(trace.ID(tc.TraceID), trace.SpanID(tc.SpanID),
			"monitor.sketch_report", trace.I("request", int64(req.RequestID)))
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.mu.Lock()
	delta := req.Since != 0 && s.core.DeltaInto(&s.snap, req.Since)
	if !delta {
		s.core.SnapshotInto(&s.snap)
	}
	s.mu.Unlock()
	if sp != nil {
		sp.SetAttr(trace.I("sketch_interval", s.snap.Interval), trace.I("flows", int64(len(s.snap.FlowIDs))),
			trace.B("delta", delta))
	}
	resp := transport.SketchResponse{RequestID: req.RequestID, MonitorID: s.cfg.ID, Report: s.snap}
	if err := conn.Send(transport.Envelope{Response: &resp, Trace: tc}); err != nil {
		sp.Event("send_error", trace.S("err", err.Error()))
		_ = conn.Close() // a link that cannot answer is dead: let the reader see it
	}
	sp.End()
}

// alarm records an alarm broadcast and hands it to Config.OnAlarm.
func (s *Service) alarm(a transport.Alarm, _ *transport.TraceContext) {
	s.met.alarmsRecv.Inc()
	// The log's arguments are boxed only for a logger that writes them.
	if s.log.Enabled(context.Background(), slog.LevelWarn) {
		s.log.Warn("alarm from NOC", "interval", a.Interval,
			"distance", a.Distance, "threshold", a.Threshold, "degraded", a.Degraded)
	}
	if fr := s.cfg.FlightRecorder; fr != nil {
		s.mu.Lock()
		last := s.core.Now()
		s.mu.Unlock()
		if err := fr.Record(alarmRecord{
			Kind:         "monitor.alarm_received",
			Monitor:      s.cfg.ID,
			Trace:        trace.ForInterval(a.Interval),
			Interval:     a.Interval,
			SPE:          a.Distance,
			Threshold:    a.Threshold,
			Degraded:     a.Degraded,
			LastInterval: last,
			UnixNanos:    time.Now().UnixNano(),
		}); err != nil {
			s.log.Warn("flight record failed", "err", err)
		}
	}
	if s.cfg.OnAlarm != nil {
		s.cfg.OnAlarm(a)
	}
}

// ReportInterval ingests interval t's volumes (indexed like Config.FlowIDs)
// into the sketch state and pushes the volume report to the NOC. The fold
// comes first, so an interval measured while the uplink is down (the call
// then returns ErrNotConnected) is still in the next sketch report. An
// interval already folded — a retry after a failed send — skips the update
// and only re-sends the report, so the call is safe to repeat across link
// losses and reconnects.
func (s *Service) ReportInterval(t int64, volumes []float64) error {
	// Attributes are built only for a span: boxing them costs allocations
	// every interval even when tracing is off.
	sp := s.cfg.Trace.Start(trace.ForInterval(t), 0, "monitor.update")
	if sp != nil {
		sp.SetAttr(
			trace.S("monitor", s.cfg.ID),
			trace.I("interval", t),
			trace.I("flows", int64(len(volumes))))
	}
	s.mu.Lock()
	if s.core == nil {
		s.mu.Unlock()
		sp.End()
		return fmt.Errorf("%w: no sketch state before the parameter announcement", ErrNotConnected)
	}
	if t > s.core.Now() {
		start := time.Now()
		if err := s.core.Update(t, volumes); err != nil {
			s.mu.Unlock()
			s.met.reportErrors.Inc()
			sp.Event("update_error", trace.S("err", err.Error()))
			sp.End()
			return fmt.Errorf("sketch update: %w", err)
		}
		s.met.updateSeconds.Observe(time.Since(start).Seconds())
		buckets := s.core.StateSize()
		s.met.vhBuckets.Set(float64(buckets))
		s.met.intervals.Inc()
		s.met.lastInterval.Set(float64(t))
		if sp != nil {
			sp.Event("sketch_updated", trace.I("vh_buckets", int64(buckets)))
		}
		if s.oracle != nil {
			// Shadow only intervals actually folded into the sketch state
			// (retries re-enter with t ≤ Now and must not double-push).
			s.oracle.ObserveMonitor(t, volumes, s.core)
		}
	} else {
		sp.Event("update_skipped", trace.I("now", s.core.Now()))
	}
	s.mu.Unlock()

	report := transport.VolumeReport{MonitorID: s.cfg.ID, Interval: t, FlowIDs: s.flowIDs, Volumes: volumes}
	env := transport.Envelope{Volume: &report}
	if sp != nil {
		env.Trace = &transport.TraceContext{TraceID: uint64(sp.Trace()), SpanID: uint64(sp.ID())}
	}
	// The link's Hello announced these flows, so SendVolume leaves them out.
	err := s.up.SendVolume(env)
	if errors.Is(err, ErrNotConnected) {
		sp.Event("not_connected")
		sp.End()
		return ErrNotConnected
	}
	if err != nil {
		s.met.reportErrors.Inc()
		s.health.Set("noc-link", obs.StatusDown, err.Error())
		sp.Event("report_send_error", trace.S("err", err.Error()))
		sp.End()
		return fmt.Errorf("volume report: %w", err)
	}
	sp.Event("volume_report_sent")
	sp.End()
	return nil
}

// alarmRecord is the monitor-side flight-recorder line: one per alarm
// broadcast received from the NOC, keyed by the same interval-derived trace
// ID the NOC's decision record carries.
type alarmRecord struct {
	Kind         string   `json:"kind"`
	Monitor      string   `json:"monitor"`
	Trace        trace.ID `json:"trace"`
	Interval     int64    `json:"interval"`
	SPE          float64  `json:"spe"`
	Threshold    float64  `json:"threshold"`
	Degraded     bool     `json:"degraded"`
	LastInterval int64    `json:"last_interval"`
	UnixNanos    int64    `json:"unix_ns"`
}

// LogSummary emits the one-line slog summary daemons print periodically:
// every unlabeled counter and gauge of the registry, which includes an
// ingest pipeline's when the daemon registers one there.
func (s *Service) LogSummary() {
	s.log.Info("monitor stats", s.reg.LogArgs()...)
}

// Report returns what a sketch pull carries now (core.Monitor.Report); the
// state exists once New or the announcement built it.
func (s *Service) Report() core.SketchReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Report()
}

// Inspect runs f on the sketch state under the service's lock; f must only
// read it.
func (s *Service) Inspect(f func(*core.Monitor)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(s.core)
}

// Close tears down the NOC connection, stops any reconnect loop and waits
// for the reader to exit. Safe to call multiple times and before Connect;
// the service cannot be re-attached afterwards.
func (s *Service) Close() error {
	attached := s.up.Conn() != nil
	err := s.up.Close()
	if s.diag != nil {
		_ = s.diag.Close()
	}
	s.health.Set("monitor", obs.StatusDown, "closed")
	s.up.Wait()
	if attached {
		s.LogSummary()
	}
	return err
}
