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
	// WindowLen is n and Epsilon the VH parameter ε.
	WindowLen int
	Epsilon   float64
	// Sketch configures the shared random projection. WindowLen is filled
	// from the service's when unset. Ignored for the FD family.
	Sketch randproj.Config
	// FDEll is the Frequent Directions basis budget ℓ (FD family only); 0
	// selects sketch.DefaultEll of the assigned flow count.
	FDEll int
	// OnAlarm, when set, is invoked for alarms pushed by the NOC.
	OnAlarm func(transport.Alarm)
	// Reconnect enables automatic redial when the NOC link drops: the
	// service redials the address given to Connect with capped exponential
	// backoff, resends Hello and resumes serving sketch pulls. Ineffective
	// for Attach-ed connections (there is no address to redial) and after
	// the NOC rejects the registration (retrying would loop forever) —
	// unless an aggregator shard map has been received, in which case the
	// redial walks the rendezvous-ordered candidate list (federated
	// failover; a rejection there is usually a transient re-shard conflict).
	Reconnect bool
	// ReconnectBackoff is the pause before the first redial, doubling up
	// to ReconnectBackoffMax. Defaults: 200ms and 5s.
	ReconnectBackoff    time.Duration
	ReconnectBackoffMax time.Duration
	// Candidates pre-seeds the aggregator candidate list normally learned
	// from a transport.ShardMap push (epoch 0, so any pushed map replaces
	// it). Set by daemons started with an explicit -aggs list so failover
	// works even before the first registration completes.
	Candidates []string
	// SelfCheckEvery, when ≥ 1, enables the internal/oracle differential
	// validator: the service shadows every interval with an exact sliding
	// window per flow and every SelfCheckEvery-th interval checks the
	// histograms' stats, sketches and Lemma 1 bound against it, recording
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
			"Sketch state cells: variance-histogram buckets summed over assigned flows (randproj, O(w log^2 n) space) or live FD buffer rows (≤ 2ℓ)."),
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
	gen *randproj.Generator
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

	mu     sync.Mutex
	core   *core.Monitor
	oracle *oracle.Checker
	// ingestStats, when set, snapshots the live-ingest pipeline feeding
	// this monitor for Stats/LogSummary (see SetIngestStats).
	ingestStats func() IngestStats
}

// New validates cfg and builds the sketch state.
func New(cfg Config) (*Service, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("%w: empty monitor id", ErrConfig)
	}
	var gen *randproj.Generator
	if cfg.Family == sketch.FamilyRandProj {
		sketchCfg := cfg.Sketch
		if sketchCfg.WindowLen == 0 {
			sketchCfg.WindowLen = cfg.WindowLen
		}
		var err error
		if gen, err = randproj.NewGenerator(sketchCfg); err != nil {
			return nil, fmt.Errorf("generator: %w", err)
		}
	} else if cfg.SelfCheckEvery > 0 {
		return nil, fmt.Errorf("%w: the oracle self-check shadows variance histograms and only supports the randproj family", ErrConfig)
	}
	cm, err := core.NewMonitor(core.MonitorConfig{
		Family:    cfg.Family,
		FlowIDs:   cfg.FlowIDs,
		WindowLen: cfg.WindowLen,
		Epsilon:   cfg.Epsilon,
		Gen:       gen,
		FDEll:     cfg.FDEll,
	})
	if err != nil {
		return nil, fmt.Errorf("core monitor: %w", err)
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
		gen:     gen,
		log:     log.With("monitor", cfg.ID),
		reg:     reg,
		health:  obs.NewHealth(),
		met:     newMetrics(reg),
		wireMet: transport.NewMetrics(reg),
		flowIDs: cm.FlowIDs(),
		core:    cm,
	}
	if cfg.SelfCheckEvery > 0 {
		chk, err := oracle.NewChecker(oracle.CheckerConfig{
			Every:     cfg.SelfCheckEvery,
			WindowLen: cfg.WindowLen,
			Epsilon:   cfg.Epsilon,
			Gen:       gen,
			NumFlows:  len(cfg.FlowIDs),
			Component: "monitor",
			Log:       s.log,
			Reg:       reg,
		})
		if err != nil {
			return nil, fmt.Errorf("oracle checker: %w", err)
		}
		s.oracle = chk
	}
	s.health.Set("monitor", obs.StatusOK, "sketch state ready")
	s.up = tier.NewUplink(tier.UplinkConfig{
		ID:          cfg.ID,
		Hello:       s.hello,
		OnRequest:   s.serveSketch,
		OnAlarm:     s.alarm,
		Reconnect:   cfg.Reconnect,
		Backoff:     cfg.ReconnectBackoff,
		BackoffMax:  cfg.ReconnectBackoffMax,
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

// sketchParam returns the family's shared sketch parameter announced in the
// Hello: l from the generator for randproj, the resolved ℓ for FD.
func (s *Service) sketchParam() int {
	if s.gen != nil {
		return s.gen.SketchLen()
	}
	if fd, ok := s.core.Sketcher().(*sketch.FD); ok {
		return fd.Ell()
	}
	return 0
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
// sketch requests. With Config.Reconnect set, a later link loss redials
// this address automatically.
func (s *Service) Connect(nocAddr string, timeout time.Duration) error {
	return s.up.Connect(nocAddr, timeout)
}

// Attach adopts an established connection (used by tests and embedders),
// sends the Hello and starts the reader.
func (s *Service) Attach(conn *transport.Conn) error { return s.up.Attach(conn) }

// hello announces this monitor's flows and sketch parameters.
func (s *Service) hello() transport.Hello {
	h := transport.Hello{
		MonitorID: s.cfg.ID,
		FlowIDs:   s.flowIDs,
		SketchLen: s.sketchParam(),
		WindowLen: s.cfg.WindowLen,
		Family:    s.cfg.Family,
	}
	if s.gen != nil {
		h.Seed = s.gen.Seed()
	}
	return h
}

// serveSketch answers one sketch pull with the current sketch state.
func (s *Service) serveSketch(conn *transport.Conn, req transport.SketchRequest, tc *transport.TraceContext) {
	s.met.sketchReqs.Inc()
	// Parent the serving span under the NOC's fetch span when the request
	// carries a trace context (cross-process lineage).
	var sp *trace.Span
	if tc != nil {
		sp = s.cfg.Trace.Start(trace.ID(tc.TraceID), trace.SpanID(tc.SpanID),
			"monitor.sketch_report", trace.I("request", int64(req.RequestID)))
	}
	s.mu.Lock()
	rep := s.core.Report()
	s.mu.Unlock()
	sp.SetAttr(trace.I("sketch_interval", rep.Interval), trace.I("flows", int64(len(rep.FlowIDs))))
	resp := transport.SketchResponse{RequestID: req.RequestID, MonitorID: s.cfg.ID, Report: rep}
	if err := conn.Send(transport.Envelope{Response: &resp, Trace: tc}); err != nil {
		sp.Event("send_error", trace.S("err", err.Error()))
		_ = conn.Close() // a link that cannot answer is dead: let the reader see it
	}
	sp.End()
}

// alarm records an alarm broadcast and hands it to Config.OnAlarm.
func (s *Service) alarm(a transport.Alarm, _ *transport.TraceContext) {
	s.met.alarmsRecv.Inc()
	s.log.Warn("alarm from NOC", "interval", a.Interval,
		"distance", a.Distance, "threshold", a.Threshold, "degraded", a.Degraded)
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
	sp := s.cfg.Trace.Start(trace.ForInterval(t), 0, "monitor.update",
		trace.S("monitor", s.cfg.ID),
		trace.I("interval", t),
		trace.I("flows", int64(len(volumes))))
	s.mu.Lock()
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
		buckets := s.core.NumBucketsTotal()
		s.met.vhBuckets.Set(float64(buckets))
		s.met.intervals.Inc()
		s.met.lastInterval.Set(float64(t))
		sp.Event("sketch_updated", trace.I("vh_buckets", int64(buckets)))
		if s.oracle != nil {
			// Shadow only intervals actually folded into the sketch state
			// (retries re-enter with t ≤ Now and must not double-push).
			s.oracle.ObserveMonitor(t, volumes, s.core)
		}
	} else {
		sp.Event("update_skipped", trace.I("now", s.core.Now()))
	}
	s.mu.Unlock()

	conn := s.up.Conn()
	if conn == nil {
		sp.Event("not_connected")
		sp.End()
		return ErrNotConnected
	}
	report := transport.VolumeReport{
		MonitorID: s.cfg.ID,
		Interval:  t,
		FlowIDs:   s.flowIDs,
		Volumes:   append([]float64(nil), volumes...),
	}
	env := transport.Envelope{Volume: &report}
	if sp != nil {
		env.Trace = &transport.TraceContext{TraceID: uint64(sp.Trace()), SpanID: uint64(sp.ID())}
	}
	if err := conn.Send(env); err != nil {
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

// IngestStats is a snapshot of the live-ingestion pipeline feeding this
// monitor, surfaced in Stats and the LogSummary line so drops are visible
// without scraping /metrics. The daemon wires it with SetIngestStats; a
// CSV- or test-fed monitor has none.
type IngestStats struct {
	// FutureDrops counts the clock-anomaly rejections and LateRecords the
	// arrivals behind the seal watermark.
	FutureDrops int64
	LateRecords int64
	// EpochsSealed and PartialEpochs count delivered intervals and the
	// subset sealed early by shutdown drain.
	EpochsSealed  int64
	PartialEpochs int64
}

// SetIngestStats installs the callback LogSummary/Stats use to snapshot the
// ingest pipeline (nil detaches). The monitor never depends on
// internal/ingest directly; the daemon that owns both wires them together.
func (s *Service) SetIngestStats(fn func() IngestStats) {
	s.mu.Lock()
	s.ingestStats = fn
	s.mu.Unlock()
}

// Stats is the monitor's counterpart to the NOC's DetectorStats: a snapshot
// of the per-daemon counters for periodic one-line summaries.
type Stats struct {
	// Intervals is the number of intervals ingested, SketchRequests the
	// sketch pulls served, AlarmsReceived the NOC broadcasts seen and
	// ReportErrors the failed updates/sends.
	Intervals      int64
	SketchRequests int64
	AlarmsReceived int64
	ReportErrors   int64
	// LastInterval is the newest interval in the sketch state and VHBuckets
	// its current total bucket count.
	LastInterval int64
	VHBuckets    int
	// Ingest is the live-ingestion snapshot; nil when the monitor is not
	// fed by an ingest pipeline (see SetIngestStats).
	Ingest *IngestStats
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	last := s.core.Now()
	buckets := s.core.NumBucketsTotal()
	ingestFn := s.ingestStats
	s.mu.Unlock()
	st := Stats{
		Intervals:      s.met.intervals.Value(),
		SketchRequests: s.met.sketchReqs.Value(),
		AlarmsReceived: s.met.alarmsRecv.Value(),
		ReportErrors:   s.met.reportErrors.Value(),
		LastInterval:   last,
		VHBuckets:      buckets,
	}
	if ingestFn != nil {
		in := ingestFn()
		st.Ingest = &in
	}
	return st
}

// LogSummary emits the one-line slog summary daemons print periodically.
// With an ingest pipeline attached (SetIngestStats) the line also covers
// the ingest side, so late records and partial epochs show up in the same
// place as sketch-side stats.
func (s *Service) LogSummary() {
	st := s.Stats()
	args := []any{
		"intervals", st.Intervals,
		"sketch_requests", st.SketchRequests,
		"alarms", st.AlarmsReceived,
		"report_errors", st.ReportErrors,
		"last_interval", st.LastInterval,
		"vh_buckets", st.VHBuckets,
	}
	if st.Ingest != nil {
		args = append(args,
			"ingest_future_drops", st.Ingest.FutureDrops,
			"ingest_late", st.Ingest.LateRecords,
			"ingest_sealed", st.Ingest.EpochsSealed,
			"ingest_partial", st.Ingest.PartialEpochs,
		)
	}
	s.log.Info("monitor stats", args...)
}

// Report returns the current sketch state (local inspection).
func (s *Service) Report() core.SketchReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Report()
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
