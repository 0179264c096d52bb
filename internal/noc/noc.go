// Package noc implements the Network Operation Center service of Fig. 1: the
// downstream half of internal/tier (registrations, per-interval assembly of
// the network-wide measurement vector, lazy sketch pulls, alarm fan-out) with
// a sink that drives the sketch-PCA detection protocol (core.Detector) —
// pulling sketches only when a measurement exceeds the current threshold —
// and identifies and flight-records what it alarms on.
package noc

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"streampca/internal/core"
	"streampca/internal/faults"
	"streampca/internal/obs"
	"streampca/internal/oracle"
	"streampca/internal/sketch"
	"streampca/internal/tier"
	"streampca/internal/trace"
	"streampca/internal/transport"
)

// Errors returned by the package.
var (
	// ErrConfig indicates an invalid service configuration.
	ErrConfig = errors.New("noc: invalid configuration")
	// ErrCoverage indicates the registered monitors do not cover all flows.
	ErrCoverage = errors.New("noc: incomplete flow coverage")
)

// Decision couples a detector decision with the interval it concerns.
type Decision struct {
	Interval int64
	// Vector is the interval's assembled measurement vector. It is the tier's
	// storage, recycled for a later interval: valid until OnDecision returns,
	// so a callback that keeps it copies it.
	Vector []float64
	// Warmup is true for intervals before a full window has elapsed:
	// detection was skipped and Result is zero.
	Warmup bool
	// Degraded marks a decision made on incomplete inputs: missing volumes
	// were filled from each flow's last report and/or the model in force
	// was rebuilt from cached sketch reports (see Config.Degraded).
	Degraded bool
	// StaleFlows counts the flows whose volumes came from cache for this
	// interval; the model's own substitution count is Result.StaleFlows.
	StaleFlows int
	Result     core.Decision
	// Identified is the anomography identification run on this decision
	// (alarmed decisions only; nil when the decision did not alarm, when
	// identification is disabled, or when it failed).
	Identified *core.Identification
}

// Config parameterizes the NOC service.
type Config struct {
	// Detector configures the sketch-PCA detector (flows, window, sketch
	// length, alpha, rank policy, sketcher family and model builder).
	Detector core.DetectorConfig
	// Seed is the shared randomness seed (randproj family; FD carries no
	// shared randomness). It also seeds the fetch-backoff jitter for
	// reproducible chaos tests. With the family, m, n and l from Detector
	// it makes the protocol parameters (core.Params) the NOC announces to
	// every peer and compares every Hello against.
	Seed uint64
	// Pull paces the sketch pulls (tier.PullPolicy); unset fields take
	// tier.NOCPull's. Partial results of a round are kept, and a retry round
	// re-requests only the monitors owning still-missing flows.
	Pull tier.PullPolicy
	// BreakerThreshold opens a monitor's circuit breaker after this many
	// consecutive fetch failures (request send error, invalid report, or
	// response timeout). Open monitors are skipped by the fetch path until
	// BreakerCooldown elapses, then given one half-open probe; a success
	// closes the breaker, a failure re-arms the cooldown. 0 selects the
	// default of 3; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker excludes its monitor
	// before the half-open probe; defaults to 5s.
	BreakerCooldown time.Duration
	// Degraded configures graceful degradation (tier.DegradedPolicy): instead
	// of stalling when monitors are missing, the NOC substitutes each missing
	// flow's last validated data — volumes when assembling the measurement
	// vector, sketch reports when rebuilding the model — and flags the
	// resulting decisions Degraded.
	Degraded tier.DegradedPolicy
	// Faults, when non-nil, is installed on every accepted monitor
	// connection — the chaos-testing hook. Production leaves it nil.
	Faults faults.Injector
	// OnDecision, when set, receives every completed-interval decision.
	// It is called from the processing goroutine; keep it fast. The
	// decision's Vector is valid until it returns.
	OnDecision func(Decision)
	// SelfCheckEvery, when ≥ 1, enables the internal/oracle differential
	// validator: the NOC shadows every non-degraded completed interval
	// vector and every SelfCheckEvery-th interval validates the model in
	// force against an exact batch-PCA reference (Lemmas 5–6, Theorem 2,
	// alarm agreement), recording streampca_noc_oracle_* metrics and
	// logging violations. Costs a window-plus-slack copy of the interval
	// vectors and an O(n·m² + m³) pass per sampled interval; 0 (the
	// default) disables.
	SelfCheckEvery int
	// Obs is the metrics registry the service instruments into; nil creates
	// a private registry (instrumentation is always on).
	Obs *obs.Registry
	// Log receives structured logs; nil discards them.
	Log *slog.Logger
	// MetricsAddr, when non-empty, serves /metrics, /healthz and
	// /debug/pprof on that address once Serve is called; Shutdown closes
	// it. Empty (the default) opens no listener. With Trace set it also
	// serves the span ring on /debug/trace.
	MetricsAddr string
	// Trace, when non-nil, emits interval-lineage spans: one "noc.decide"
	// per completed interval with a child "noc.fetch" covering the §IV-C
	// sketch pull (retry rounds, breaker transitions and degraded
	// fallbacks recorded as events). Sketch requests carry the fetch
	// span's TraceContext so monitor-side serving spans parent under it.
	// Nil (the default) costs one pointer check per call site.
	Trace *trace.Tracer
	// FlightRecorder, when non-nil, appends one JSONL FlightRecord per
	// alarm and per degraded decision: trace ID, SPE vs threshold, the
	// identified culprits and the contributing monitor set with sketch ages —
	// enough to reconstruct the decision offline. Nil disables.
	FlightRecorder *trace.FlightRecorder
	// IdentifyMaxK caps the anomography culprits identified per alarmed
	// decision (core.Detector.Identify). 0 selects anomography's default;
	// negative disables identification entirely. Identifications are
	// attached to alarm broadcasts, flight records, OnDecision and the
	// streampca_noc_identify_* metrics.
	IdentifyMaxK int
}

// params returns the protocol parameters cfg states.
func (cfg Config) params() core.Params {
	det := cfg.Detector
	return core.Params{Family: det.Family, NumFlows: det.NumFlows, WindowLen: det.WindowLen,
		SketchLen: det.SketchLen, Seed: cfg.Seed}
}

// metrics is the NOC's instrumentation surface. All names are under
// streampca_noc_ and documented in README.md "Observability".
type metrics struct {
	observations *obs.Counter
	// retrains counts lazy-protocol model rebuilds; retrainSeconds times
	// the O(m²·log n) rebuild (fetch RTT excluded) and fetchSeconds the
	// §IV-C sketch-pull round trip.
	retrains       *obs.Counter
	retrainSeconds *obs.Histogram
	fetchSeconds   *obs.Histogram
	fetchErrors    *obs.Counter
	alarms         *obs.Counter
	alarmSends     *obs.Counter
	// spe and threshold expose the latest squared-prediction-error distance
	// d(y) and the Q-statistic control limit δ it was compared against.
	spe       *obs.Gauge
	threshold *obs.Gauge
	monitors  *obs.Gauge
	// aggregators counts the subset of registered peers that announced
	// RoleAggregator — per-shard accounting for the federated topology.
	aggregators *obs.Gauge
	rejects     *obs.Counter
	warmups     *obs.Counter
	intervals   *obs.Counter
	drops       *obs.Counter
	// Fault-tolerance surface: retry rounds, degraded decisions, stale
	// substitutions and circuit-breaker state.
	fetchRetries *obs.Counter
	staleFlows   *obs.Gauge
	degraded     *obs.Counter
	breakerOpen  *obs.Gauge
	breakerOpens *obs.Counter
	// thresholdUnavailable counts intervals decided without a usable δ
	// (degenerate residual spectrum — the detector is blind, not "normal").
	thresholdUnavailable *obs.Counter
	// thresholdCapped gauges how many trailing residual components the
	// current model's Q threshold dropped to escape h0 ≤ 0 degeneracy
	// (0 = exact Jackson–Mudholkar limit).
	thresholdCapped *obs.Gauge
	// flightRecords counts audit lines written by the alarm flight recorder.
	flightRecords *obs.Counter
	// Anomography surface: identifications run on alarmed decisions, their
	// latency, the culprit count of the latest one, and failures.
	identifies      *obs.Counter
	identifySeconds *obs.Histogram
	identifiedFlows *obs.Gauge
	identifyErrors  *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		observations: reg.Counter("streampca_noc_observations_total",
			"Completed intervals run through the lazy detection protocol."),
		retrains: reg.Counter("streampca_noc_retrains_total",
			"Model rebuilds triggered by the lazy protocol (§IV-C fetch+retrain)."),
		retrainSeconds: reg.Histogram("streampca_noc_retrain_seconds",
			"Sketch-PCA model rebuild latency, fetch round-trip excluded (O(m^2 log n)).", nil),
		fetchSeconds: reg.Histogram("streampca_noc_fetch_seconds",
			"Sketch-pull round-trip latency across all monitors (§IV-C).", nil),
		fetchErrors: reg.Counter("streampca_noc_fetch_errors_total",
			"Sketch pulls that failed (timeout, coverage gap, bad report)."),
		alarms: reg.Counter("streampca_noc_alarms_total",
			"Anomaly alarms raised after a fresh-model re-check."),
		alarmSends: reg.Counter("streampca_noc_alarm_broadcasts_total",
			"Per-monitor alarm broadcast sends attempted."),
		spe: reg.Gauge("streampca_noc_spe",
			"Latest anomaly distance d(y) (residual-subspace magnitude)."),
		threshold: reg.Gauge("streampca_noc_threshold",
			"Current Q-statistic control limit delta_alpha."),
		monitors: reg.Gauge("streampca_noc_monitors_connected",
			"Currently registered local monitors."),
		aggregators: reg.Gauge("streampca_noc_aggregators_connected",
			"Currently registered mid-tier aggregators (subset of connected peers)."),
		rejects: reg.Counter("streampca_noc_registrations_rejected_total",
			"Monitor registrations refused (config or flow-ownership mismatch)."),
		warmups: reg.Counter("streampca_noc_warmup_intervals_total",
			"Completed intervals skipped during window warm-up."),
		intervals: reg.Counter("streampca_noc_intervals_total",
			"Completed network-wide measurement vectors assembled."),
		drops: reg.Counter("streampca_noc_dropped_intervals_total",
			"Intervals discarded (straggler eviction or saturated detector)."),
		fetchRetries: reg.Counter("streampca_noc_fetch_retries_total",
			"Sketch-pull retry rounds issued (re-requests of missing responses)."),
		staleFlows: reg.Gauge("streampca_noc_stale_flows",
			"Flows served from the sketch cache in the most recent model rebuild."),
		degraded: reg.Counter("streampca_noc_degraded_decisions_total",
			"Decisions emitted on substituted (cached) volumes or a stale-sketch model."),
		breakerOpen: reg.Gauge("streampca_noc_breaker_open",
			"Monitors currently excluded from sketch pulls by an open circuit breaker."),
		breakerOpens: reg.Counter("streampca_noc_breaker_opens_total",
			"Circuit-breaker open transitions (consecutive-failure threshold crossed)."),
		thresholdUnavailable: reg.Counter("streampca_noc_threshold_unavailable_total",
			"Intervals with no usable Q threshold (degenerate residual spectrum)."),
		thresholdCapped: reg.Gauge("streampca_noc_threshold_capped_components",
			"Trailing residual components dropped by residual-rank capping for the current model's Q threshold (0 = exact)."),
		flightRecords: reg.Counter("streampca_noc_flight_records_total",
			"Alarm/degraded-decision audit records appended to the flight recorder."),
		identifies: reg.Counter("streampca_noc_identify_total",
			"Anomography identifications run on alarmed decisions."),
		identifySeconds: reg.Histogram("streampca_noc_identify_seconds",
			"Anomography pursuit latency per alarmed decision.", nil),
		identifiedFlows: reg.Gauge("streampca_noc_identified_flows",
			"Culprit flows returned by the most recent identification."),
		identifyErrors: reg.Counter("streampca_noc_identify_errors_total",
			"Anomography identifications that failed."),
	}
}

// Service is the NOC. Start it with Serve, stop with Shutdown.
type Service struct {
	cfg  Config
	log  *slog.Logger
	down *tier.Downstream

	reg     *obs.Registry
	health  *obs.Health
	met     *metrics
	wireMet *transport.Metrics
	diag    *obs.Server

	detMu sync.Mutex
	det   *core.Detector
	// oracle is the -selfcheck differential validator; nil when disabled.
	// Touched only from the processing goroutine.
	oracle *oracle.Checker
	// pulled is the sketch pull the observation in progress fetched, released
	// to the tier once the model is built, and fetched its reports assembled
	// for the detector; processing goroutine only.
	pulled  *tier.Pull
	fetched core.Fetch
	// culprits is the alarm log's culprit list; processing goroutine only.
	culprits []int

	workCh   chan tier.Interval // buffered channel feeding the processor
	procDone chan struct{}

	// serving records whether processLoop was started; Shutdown must not
	// wait on procDone otherwise. shutdownOnce makes Shutdown idempotent.
	serving      atomic.Bool
	shutdownOnce sync.Once
}

// New validates cfg and builds the service (not yet listening).
func New(cfg Config) (*Service, error) {
	params := cfg.params()
	det, err := core.NewDetector(cfg.Detector)
	if err != nil {
		return nil, fmt.Errorf("detector: %w", err)
	}
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	if cfg.SelfCheckEvery > 0 && cfg.Detector.Family == sketch.FamilyFD {
		return nil, fmt.Errorf("%w: the oracle self-check shadows variance histograms and only supports the randproj family", ErrConfig)
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	log := cfg.Log
	if log == nil {
		log = obs.Nop()
	}
	m := cfg.Detector.NumFlows
	s := &Service{
		cfg:      cfg,
		log:      log,
		reg:      reg,
		health:   obs.NewHealth(),
		met:      newMetrics(reg),
		wireMet:  transport.NewMetrics(reg),
		det:      det,
		workCh:   make(chan tier.Interval, 256),
		procDone: make(chan struct{}),
	}
	foreign, mismatch := tier.DroppedReports(reg, "streampca_noc_volume_reports_dropped_total")
	s.down, err = tier.NewDownstream(tier.DownstreamConfig{
		Params:           params,
		RequireAll:       true,
		Pull:             cfg.Pull,
		PullDefaults:     tier.NOCPull,
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerCooldown:  cfg.BreakerCooldown,
		Degraded:         cfg.Degraded,
		Faults:           cfg.Faults,
		WireMetrics:      s.wireMet,
		Metrics: tier.Metrics{
			Registrants:     s.met.monitors,
			Rejected:        s.met.rejects,
			Evicted:         s.met.drops,
			PullRetries:     s.met.fetchRetries,
			BreakerOpen:     s.met.breakerOpen,
			BreakerOpens:    s.met.breakerOpens,
			DroppedForeign:  foreign,
			DroppedMismatch: mismatch,
		},
		Log:        log,
		OnInterval: s.enqueue,
		OnChange:   s.countAggregators,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	if cfg.SelfCheckEvery > 0 {
		chk, err := oracle.NewChecker(oracle.CheckerConfig{
			Every:     cfg.SelfCheckEvery,
			WindowLen: cfg.Detector.WindowLen,
			Alpha:     cfg.Detector.Alpha,
			SketchLen: cfg.Detector.SketchLen,
			NumFlows:  m,
			Component: "noc",
			Log:       log,
			Reg:       reg,
		})
		if err != nil {
			return nil, fmt.Errorf("oracle checker: %w", err)
		}
		s.oracle = chk
		log.Info("oracle self-check on", "every", cfg.SelfCheckEvery)
	}
	s.health.Set("noc", obs.StatusDegraded, "not serving yet")
	s.health.Set("detector", obs.StatusDegraded, "no model built")
	return s, nil
}

// DiagAddr returns the diagnostics server address, or "" when disabled.
func (s *Service) DiagAddr() string {
	if s.diag == nil {
		return ""
	}
	return s.diag.Addr()
}

// Serve starts listening on addr and processing intervals; when
// Config.MetricsAddr is set it also starts the diagnostics HTTP server.
func (s *Service) Serve(addr string) error {
	if err := s.down.Serve(addr); err != nil {
		return err
	}
	if s.cfg.MetricsAddr != "" {
		diag, err := obs.StartServerWith(s.cfg.MetricsAddr, s.reg, s.health, s.cfg.Trace.Recorder(), s.log)
		if err != nil {
			s.down.Shutdown()
			return err
		}
		s.diag = diag
	}
	s.serving.Store(true)
	s.health.Set("noc", obs.StatusOK, "serving")
	s.log.Info("NOC serving", "addr", s.down.Addr(),
		"flows", s.cfg.Detector.NumFlows, "window", s.cfg.Detector.WindowLen,
		"sketch", s.cfg.Detector.SketchLen)
	go s.processLoop()
	return nil
}

// Addr returns the bound listen address ("" before Serve).
func (s *Service) Addr() string { return s.down.Addr() }

// Shutdown stops the listener, drops all monitors, stops the processor and
// closes the diagnostics server after flushing a final stats summary. It is
// idempotent and safe to call even if Serve was never invoked.
func (s *Service) Shutdown() {
	s.shutdownOnce.Do(func() {
		// The downstream shutdown aborts a pull in flight and waits for every
		// connection reader to return, so no sender can race the close of
		// workCh below.
		s.down.Shutdown()
		close(s.workCh)
		if s.serving.Load() {
			<-s.procDone
		}
		s.health.Set("noc", obs.StatusDown, "shut down")
		s.LogSummary()
		if s.diag != nil {
			_ = s.diag.Close()
		}
	})
}

// LogSummary emits the one-line slog stats summary daemons print
// periodically — every unlabeled counter and gauge of the registry; Shutdown
// flushes it once more as the final snapshot.
func (s *Service) LogSummary() {
	s.log.Info("noc stats", s.reg.LogArgs()...)
}

// HasModel reports whether the detector has built a model yet.
func (s *Service) HasModel() bool {
	s.detMu.Lock()
	defer s.detMu.Unlock()
	return s.det.HasModel()
}

// Model returns the model in force, nil before the first build. It stays
// valid through the next rebuild, but its Sketch is the detector's workspace,
// which that rebuild overwrites: read it before the next interval is
// reported (see core.Model).
func (s *Service) Model() *core.Model {
	s.detMu.Lock()
	defer s.detMu.Unlock()
	return s.det.Model()
}

// DetectorStats reads the lazy-protocol counters from the registry:
// observations is streampca_noc_observations_total, fetches
// streampca_noc_retrains_total (every successful fetch triggers exactly one
// rebuild) and alarms streampca_noc_alarms_total.
func (s *Service) DetectorStats() (observations, fetches, alarms int64) {
	return s.met.observations.Value(), s.met.retrains.Value(), s.met.alarms.Value()
}

// Monitors returns the ids of currently registered monitors, sorted.
func (s *Service) Monitors() []string { return s.down.IDs() }

// countAggregators refreshes the gauge of registrants that announced
// RoleAggregator after every change of the registrant set.
func (s *Service) countAggregators() {
	aggs := 0
	for _, r := range s.down.Registrants() {
		if r.Role == transport.RoleAggregator {
			aggs++
		}
	}
	s.met.aggregators.Set(float64(aggs))
}

// enqueue hands a completed interval to the processing goroutine,
// dropping it if the detector is saturated (never stall a monitor reader).
func (s *Service) enqueue(item tier.Interval) {
	s.met.intervals.Inc()
	select {
	case s.workCh <- item:
	default:
		s.met.drops.Inc()
		s.down.ReleaseInterval(item)
	}
}

// traceContext is the wire form of sp, nil when tracing is off.
func traceContext(sp *trace.Span) *transport.TraceContext {
	if sp == nil {
		return nil
	}
	return &transport.TraceContext{TraceID: uint64(sp.Trace()), SpanID: uint64(sp.ID())}
}

// processLoop serializes detection over completed intervals and hands each
// interval's arrays back to the tier once it is decided.
func (s *Service) processLoop() {
	defer close(s.procDone)
	for item := range s.workCh {
		s.process(item)
		s.down.ReleaseInterval(item)
	}
}

// process decides one completed interval. Intervals before a full window are
// reported as warm-up without running the detector — models built from
// partial sketches would be unreliable.
func (s *Service) process(item tier.Interval) {
	// vectorDegraded marks intervals assembled with cached volumes for
	// item.Stale unowned flows (see DegradedPolicy).
	vectorDegraded := item.Stale > 0
	// Feed the oracle's exact shadow window. Degraded intervals are
	// withheld: their vectors contain cache-substituted volumes, and a
	// gap just makes the affected exact windows non-reconstructible
	// (checks skip) instead of silently comparing against wrong data.
	shadow := func(dec core.Decision, model *core.Model) {
		if s.oracle != nil && !vectorDegraded {
			s.oracle.ObserveNOC(item.Index, item.Volumes, dec, model)
		}
	}
	// Span attributes and events are built only for a span: boxing
	// them costs allocations every interval even when tracing is off.
	sp := s.cfg.Trace.Start(trace.ForInterval(item.Index), 0, "noc.decide")
	if sp != nil {
		sp.SetAttr(
			trace.I("interval", item.Index),
			trace.B("vector_degraded", vectorDegraded),
			trace.I("stale_volume_flows", int64(item.Stale)))
	}
	if item.Index < int64(s.cfg.Detector.WindowLen) {
		shadow(core.Decision{ThresholdUnavailable: true}, nil)
		s.met.warmups.Inc()
		sp.Event("warmup")
		if vectorDegraded {
			s.met.degraded.Inc()
			s.flightRecord(item, core.Decision{ThresholdUnavailable: true}, true, true, nil)
		}
		sp.End()
		if s.cfg.OnDecision != nil {
			s.cfg.OnDecision(Decision{Interval: item.Index, Vector: item.Volumes,
				Warmup: true, Degraded: vectorDegraded, StaleFlows: item.Stale})
		}
		return
	}
	// Time the fetch round trip separately from the whole observation;
	// on a refresh, observe-minus-fetch is the rebuild cost (the
	// O(m²·log n) retrain the paper bounds).
	var fetchDur time.Duration
	timedFetch := func() (core.Fetch, error) {
		fsp := s.cfg.Trace.Start(sp.Trace(), sp.ID(), "noc.fetch")
		t0 := time.Now()
		f, err := s.fetchSketches(item.Index, fsp)
		fetchDur = time.Since(t0)
		s.met.fetchSeconds.Observe(fetchDur.Seconds())
		if err != nil {
			s.met.fetchErrors.Inc()
			fsp.Event("fetch_error", trace.S("err", err.Error()))
		} else if fsp != nil {
			fsp.SetAttr(
				trace.I("sketch_interval", f.Interval),
				trace.B("degraded", f.Degraded),
				trace.I("stale_flows", int64(f.StaleFlows)))
		}
		fsp.End()
		return f, err
	}
	s.met.observations.Inc()
	start := time.Now()
	s.detMu.Lock()
	res, err := s.det.Observe(item.Volumes, timedFetch)
	s.detMu.Unlock()
	if s.pulled != nil {
		s.down.Release(s.pulled)
		s.pulled = nil
	}
	total := time.Since(start)
	if err != nil {
		s.log.Warn("observation failed", "interval", item.Index, "err", err)
		sp.Event("observation_failed", trace.S("err", err.Error()))
		sp.End()
		return // fetch failed (e.g. monitor churn); next interval retries
	}
	if res.Refreshed {
		s.met.retrains.Inc()
		retrain := total - fetchDur
		if retrain < 0 {
			retrain = 0
		}
		s.met.retrainSeconds.Observe(retrain.Seconds())
		if sp != nil {
			sp.Event("retrain",
				trace.F("seconds", retrain.Seconds()),
				trace.B("model_degraded", res.Degraded),
				trace.I("model_stale_flows", int64(res.StaleFlows)))
		}
		if res.Degraded {
			s.health.Set("detector", obs.StatusDegraded,
				fmt.Sprintf("model rebuilt from degraded sketches, %d cached flows", res.StaleFlows))
		} else {
			s.health.Set("detector", obs.StatusOK, "model fresh")
		}
	}
	model := s.Model()
	shadow(res, model)
	if model != nil {
		s.met.thresholdCapped.Set(float64(model.ThresholdCapped))
	}
	degraded := vectorDegraded || res.Degraded
	if degraded {
		s.met.degraded.Inc()
	}
	s.met.spe.Set(res.Distance)
	if res.ThresholdUnavailable {
		// The spectrum admits no Jackson–Mudholkar limit: the detector
		// could not compare d(y) against anything this interval. Surface
		// it loudly (the old behavior compared against NaN, which is
		// always false and silently never alarms) and leave the
		// threshold gauge at its last usable value.
		s.met.thresholdUnavailable.Inc()
		sp.Event("threshold_unavailable")
		s.health.Set("detector", obs.StatusDegraded,
			"threshold unavailable: degenerate residual spectrum")
		s.log.Warn("threshold unavailable, interval not classified",
			"interval", item.Index, "distance", res.Distance)
	} else {
		s.met.threshold.Set(res.Threshold)
	}
	if sp != nil {
		sp.Event("decision",
			trace.F("spe", res.Distance),
			trace.F("threshold", res.Threshold),
			trace.B("anomalous", res.Anomalous),
			trace.B("degraded", degraded),
			trace.B("refreshed", res.Refreshed))
	}
	var ident *core.Identification
	if res.Anomalous {
		s.met.alarms.Inc()
		ident = s.identify(item, sp)
		// The log's arguments, like span attributes, are boxed only for a
		// logger that writes them.
		if s.log.Enabled(context.Background(), slog.LevelWarn) {
			s.culprits = s.culprits[:0]
			if ident != nil {
				for _, f := range ident.Flows {
					s.culprits = append(s.culprits, f.Flow)
				}
			}
			s.log.Warn("anomaly detected", "interval", item.Index,
				"distance", res.Distance, "threshold", res.Threshold, "degraded", degraded,
				"culprits", s.culprits)
		}
		// Best effort, with the decision span's context attached.
		sent, _ := s.down.Broadcast(transport.Envelope{Alarm: &transport.Alarm{
			Interval:   item.Index,
			Distance:   res.Distance,
			Threshold:  res.Threshold,
			Degraded:   degraded,
			Identified: wireIdentified(ident),
		}, Trace: traceContext(sp)})
		s.met.alarmSends.Add(int64(sent))
		if sp != nil {
			sp.Event("alarm_broadcast", trace.I("monitors", int64(sent)))
		}
	}
	if res.Anomalous || degraded {
		s.flightRecord(item, res, false, degraded, ident)
	}
	sp.End()
	if s.cfg.OnDecision != nil {
		s.cfg.OnDecision(Decision{Interval: item.Index, Vector: item.Volumes,
			Degraded: degraded, StaleFlows: item.Stale, Result: res,
			Identified: ident})
	}
}

// fetchSketches implements core.FetchFunc over the registered monitors for
// the model that scores interval t: one tier pull (retry rounds, breaker,
// report validation and, under DegradedPolicy, cache substitution — see
// tier.Pull), which must cover every flow, assembled into core.Fetch.
//
// A report leaves out its newest interval only (core.Monitor.Report), so one
// from past t — a monitor that folded t+1 before the pull reached it — still
// holds t, and a spike at t is absorbed into the model that scores it. Such a
// fetch is Degraded.
//
// sp is the enclosing "noc.fetch" span (nil when tracing is off); the pull
// records its rounds on it and the degraded outcome is added here.
func (s *Service) fetchSketches(t int64, sp *trace.Span) (core.Fetch, error) {
	m := s.cfg.Detector.NumFlows
	p := s.down.Pull(sp, traceContext(sp))
	s.pulled = p
	if miss := s.down.Uncovered(p); len(miss) > 0 {
		return core.Fetch{}, fmt.Errorf("%w: %d of %d flows missing after %d rounds",
			ErrCoverage, len(miss), m, p.Rounds)
	}
	if err := s.fetched.Assemble(s.cfg.Detector.Family, m, p.Reports); err != nil {
		return core.Fetch{}, err
	}
	out := s.fetched
	out.Interval, out.Degraded, out.StaleFlows = p.Interval, p.Degraded, p.Stale
	var newest int64
	for _, r := range p.Reports {
		newest = max(newest, r.Interval)
	}
	if newest > t {
		out.Degraded = true
		sp.Event("sketch_ahead", trace.I("sketch_interval", newest))
		s.log.Warn("sketch pulled past the scored interval", "interval", t, "sketch_interval", newest)
	}
	switch {
	case p.Filled > 0:
		sp.Event("degraded_fallback",
			trace.I("stale_flows", int64(p.Stale)),
			trace.I("rounds", int64(p.Rounds)))
		s.log.Warn("degraded sketch fetch", "stale_flows", p.Stale,
			"rounds", p.Rounds, "interval", p.Interval)
	case p.Degraded:
		// An aggregator served part of its merge from its own cache.
		sp.Event("upstream_degraded", trace.I("stale_flows", int64(p.Stale)))
		s.log.Warn("degraded upstream sketch fetch", "stale_flows", p.Stale, "interval", p.Interval)
	}
	s.met.staleFlows.Set(float64(p.Stale))
	return out, nil
}
