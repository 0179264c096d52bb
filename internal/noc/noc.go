// Package noc implements the Network Operation Center service of Fig. 1: the
// downstream half of internal/tier (registrations, per-interval assembly of
// the network-wide measurement vector, lazy sketch pulls, alarm fan-out) with
// a sink that drives the sketch-PCA detection protocol (core.Detector) —
// pulling sketches only when a measurement exceeds the current threshold —
// and identifies and flight-records what it alarms on.
package noc

import (
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
	"streampca/internal/randproj"
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
	Vector   []float64
	// Warmup is true for intervals before a full window has elapsed:
	// detection was skipped and Result is zero.
	Warmup bool
	// Degraded marks a decision made on incomplete inputs: missing volumes
	// were filled from each flow's last report and/or the model in force
	// was rebuilt from cached sketch reports (see DegradedPolicy).
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

// DegradedPolicy configures graceful degradation (see tier.DegradedPolicy):
// instead of stalling when monitors are missing, the NOC substitutes each
// missing flow's last validated data — volumes when assembling the
// measurement vector, sketch reports when rebuilding the model — and flags
// the resulting decisions Degraded. MaxStaleness defaults to WindowLen/4.
type DegradedPolicy = tier.DegradedPolicy

// Config parameterizes the NOC service.
type Config struct {
	// Detector configures the sketch-PCA detector (flows, window, sketch
	// length, alpha, rank policy, sketcher family and model builder).
	Detector core.DetectorConfig
	// Seed is the shared randomness seed monitors must announce (randproj
	// family; FD monitors carry no shared randomness and announce 0). It
	// also seeds the fetch-backoff jitter for reproducible chaos tests.
	Seed uint64
	// FetchTimeout bounds one sketch-pull round; defaults to 5s.
	FetchTimeout time.Duration
	// FetchRetries is the number of additional pull rounds after the first
	// when responses are missing. Each round re-requests only the monitors
	// owning still-missing flows — partial results from earlier rounds are
	// kept, not discarded. 0 selects the default of 2; negative disables
	// retries.
	FetchRetries int
	// FetchBackoff is the pause before the first retry round; it doubles
	// each round (plus deterministic jitter) up to FetchBackoffMax.
	// Defaults: 50ms and 1s.
	FetchBackoff    time.Duration
	FetchBackoffMax time.Duration
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
	// Degraded configures graceful degradation when monitors are missing.
	Degraded DegradedPolicy
	// Faults, when non-nil, is installed on every accepted monitor
	// connection — the chaos-testing hook. Production leaves it nil.
	Faults faults.Injector
	// OnDecision, when set, receives every completed-interval decision.
	// It is called from the processing goroutine; keep it fast.
	OnDecision func(Decision)
	// MaxPendingIntervals bounds partially assembled intervals kept while
	// waiting for stragglers; defaults to 64.
	MaxPendingIntervals int
	// LocalSketches enables the paper's §V-A variant for thin monitors:
	// the NOC maintains the sketch state itself from the volume reports
	// (variance histograms for randproj, one FD buffer for FD), so monitors
	// need only run volume counters and are never asked for sketches. Costs
	// the NOC O(m·log n) extra time per interval and O(m·log²n) space for
	// randproj, O(ℓ·m) for FD.
	LocalSketches bool
	// Epsilon is the VH parameter when LocalSketches is set; defaults to
	// 0.01 (the paper's setting).
	Epsilon float64
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
	// alarm and per degraded decision: trace ID, SPE vs threshold, top-k
	// residual flows and the contributing monitor set with sketch ages —
	// enough to reconstruct the decision offline. Nil disables.
	FlightRecorder *trace.FlightRecorder
	// FlightTopK is how many residual flows the flight recorder attributes
	// on alarm records (core.Detector.Attribute). 0 selects the default of
	// 5; negative disables the attribution. Attribution runs only on
	// alarmed decisions — quiet and merely-degraded intervals skip it.
	FlightTopK int
	// IdentifyMaxK caps the anomography culprits identified per alarmed
	// decision (core.Detector.Identify). 0 selects anomography's default;
	// negative disables identification entirely. Identifications are
	// attached to alarm broadcasts, flight records, OnDecision and the
	// streampca_noc_identify_* metrics.
	IdentifyMaxK int
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

// sketchEntry is one flow's last validated sketch column, kept for the
// DegradedPolicy fallback (randproj columns are independent, so the cache is
// per flow). Touched only from the processing goroutine.
type sketchEntry struct {
	sketch []float64
	mean   float64
	at     int64
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
	// localMon holds the NOC-side variance histograms when LocalSketches
	// is enabled; accessed only from the processing goroutine.
	localMon *core.Monitor
	// sketchCache is likewise processing-goroutine-only (the fetch path).
	sketchCache []sketchEntry

	workCh   chan tier.Interval // buffered channel feeding the processor
	procDone chan struct{}

	// serving records whether processLoop was started; Shutdown must not
	// wait on procDone otherwise. shutdownOnce makes Shutdown idempotent.
	serving      atomic.Bool
	shutdownOnce sync.Once
}

// New validates cfg and builds the service (not yet listening).
func New(cfg Config) (*Service, error) {
	det, err := core.NewDetector(cfg.Detector)
	if err != nil {
		return nil, fmt.Errorf("detector: %w", err)
	}
	switch {
	case cfg.FetchRetries == 0:
		cfg.FetchRetries = 2
	case cfg.FetchRetries < 0:
		cfg.FetchRetries = 0
	}
	if cfg.Degraded.Enabled && cfg.Degraded.MaxStaleness <= 0 {
		cfg.Degraded.MaxStaleness = int64(cfg.Detector.WindowLen / 4)
		if cfg.Degraded.MaxStaleness < 1 {
			cfg.Degraded.MaxStaleness = 1
		}
	}
	if cfg.FlightTopK == 0 {
		cfg.FlightTopK = defaultFlightTopK
	}
	if cfg.SelfCheckEvery > 0 && cfg.Detector.Family == sketch.FamilyFD {
		return nil, fmt.Errorf("%w: the oracle self-check shadows variance histograms and only supports the randproj family", ErrConfig)
	}
	var localMon *core.Monitor
	if cfg.LocalSketches {
		mcfg := core.MonitorConfig{
			Family:    cfg.Detector.Family,
			WindowLen: cfg.Detector.WindowLen,
		}
		switch cfg.Detector.Family {
		case sketch.FamilyRandProj:
			if cfg.Epsilon == 0 {
				cfg.Epsilon = 0.01
			}
			gen, err := randproj.NewGenerator(randproj.Config{
				Seed:      cfg.Seed,
				SketchLen: cfg.Detector.SketchLen,
				WindowLen: cfg.Detector.WindowLen,
			})
			if err != nil {
				return nil, fmt.Errorf("local sketch generator: %w", err)
			}
			mcfg.Epsilon = cfg.Epsilon
			mcfg.Gen = gen
		case sketch.FamilyFD:
			// One NOC-side FD buffer over all flows; the detector's
			// SketchLen carries the basis budget ℓ for this family.
			mcfg.FDEll = cfg.Detector.SketchLen
		}
		flowIDs := make([]int, cfg.Detector.NumFlows)
		for j := range flowIDs {
			flowIDs[j] = j
		}
		mcfg.FlowIDs = flowIDs
		var err error
		localMon, err = core.NewMonitor(mcfg)
		if err != nil {
			return nil, fmt.Errorf("local sketch state: %w", err)
		}
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
		cfg:         cfg,
		log:         log,
		reg:         reg,
		health:      obs.NewHealth(),
		met:         newMetrics(reg),
		wireMet:     transport.NewMetrics(reg),
		sketchCache: make([]sketchEntry, m),
		det:         det,
		localMon:    localMon,
		workCh:      make(chan tier.Interval, 256),
		procDone:    make(chan struct{}),
	}
	s.down = tier.NewDownstream(tier.DownstreamConfig{
		Params: tier.Params{
			Family:    cfg.Detector.Family,
			NumFlows:  m,
			WindowLen: cfg.Detector.WindowLen,
			SketchLen: cfg.Detector.SketchLen,
			Seed:      cfg.Seed,
		},
		RequireAll:       true,
		FetchTimeout:     cfg.FetchTimeout,
		FetchRetries:     cfg.FetchRetries,
		FetchBackoff:     cfg.FetchBackoff,
		FetchBackoffMax:  cfg.FetchBackoffMax,
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerCooldown:  cfg.BreakerCooldown,
		Degraded:         cfg.Degraded,
		MaxPending:       cfg.MaxPendingIntervals,
		Faults:           cfg.Faults,
		WireMetrics:      s.wireMet,
		Metrics: tier.Metrics{
			Registrants:  s.met.monitors,
			Rejected:     s.met.rejects,
			Evicted:      s.met.drops,
			PullRetries:  s.met.fetchRetries,
			BreakerOpen:  s.met.breakerOpen,
			BreakerOpens: s.met.breakerOpens,
		},
		Log:        log,
		OnInterval: s.enqueue,
		OnChange:   s.countAggregators,
	})
	if cfg.SelfCheckEvery > 0 {
		eps := cfg.Epsilon
		if eps == 0 {
			eps = 0.01 // the paper's default; monitors own the real value
		}
		chk, err := oracle.NewChecker(oracle.CheckerConfig{
			Every:     cfg.SelfCheckEvery,
			WindowLen: cfg.Detector.WindowLen,
			Epsilon:   eps,
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
// periodically; Shutdown flushes it once more as the final snapshot.
func (s *Service) LogSummary() {
	observations, fetches, alarms := s.DetectorStats()
	s.log.Info("noc stats",
		"observations", observations,
		"fetches", fetches,
		"alarms", alarms,
		"intervals", s.met.intervals.Value(),
		"dropped", s.met.drops.Value(),
		"fetch_errors", s.met.fetchErrors.Value(),
		"fetch_retries", s.met.fetchRetries.Value(),
		"degraded", s.met.degraded.Value(),
		"monitors", int64(s.met.monitors.Value()),
	)
}

// HasModel reports whether the detector has built a model yet.
func (s *Service) HasModel() bool {
	s.detMu.Lock()
	defer s.detMu.Unlock()
	return s.det.HasModel()
}

// DetectorStats returns the lazy-protocol counters. It is a compatibility
// shim over the registry-backed metrics: observations maps to
// streampca_noc_observations_total, fetches to streampca_noc_retrains_total
// (every successful fetch triggers exactly one rebuild) and alarms to
// streampca_noc_alarms_total.
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
	}
}

// traceContext is the wire form of sp, nil when tracing is off.
func traceContext(sp *trace.Span) *transport.TraceContext {
	if sp == nil {
		return nil
	}
	return &transport.TraceContext{TraceID: uint64(sp.Trace()), SpanID: uint64(sp.ID())}
}

// processLoop serializes detection over completed intervals. Intervals
// before a full window are reported as warm-up without running the detector
// — models built from partial sketches would be unreliable.
func (s *Service) processLoop() {
	defer close(s.procDone)
	for item := range s.workCh {
		// vectorDegraded marks intervals assembled with cached volumes for
		// item.Stale unowned flows (see DegradedPolicy).
		vectorDegraded := item.Stale > 0
		// §V-A variant: the NOC owns the histograms, so it can test the
		// incoming vector BEFORE folding it in (detect-then-absorb, which
		// also limits model poisoning by the anomalous interval itself);
		// the fold happens after the decision below.
		absorb := func() {
			if s.localMon != nil && item.Index > s.localMon.Now() {
				_ = s.localMon.Update(item.Index, item.Volumes)
			}
		}
		// Feed the oracle's exact shadow window. Degraded intervals are
		// withheld: their vectors contain cache-substituted volumes, and a
		// gap just makes the affected exact windows non-reconstructible
		// (checks skip) instead of silently comparing against wrong data.
		shadow := func(dec core.Decision, model *core.Model) {
			if s.oracle != nil && !vectorDegraded {
				s.oracle.ObserveNOC(item.Index, item.Volumes, dec, model)
			}
		}
		sp := s.cfg.Trace.Start(trace.ForInterval(item.Index), 0, "noc.decide",
			trace.I("interval", item.Index),
			trace.B("vector_degraded", vectorDegraded),
			trace.I("stale_volume_flows", int64(item.Stale)))
		if item.Index < int64(s.cfg.Detector.WindowLen) {
			absorb()
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
			continue
		}
		fetch := s.fetchSketches
		if s.localMon != nil {
			fetch = s.fetchLocal
		}
		// Time the fetch round trip separately from the whole observation;
		// on a refresh, observe-minus-fetch is the rebuild cost (the
		// O(m²·log n) retrain the paper bounds).
		var fetchDur time.Duration
		timedFetch := func() (core.Fetch, error) {
			fsp := s.cfg.Trace.Start(sp.Trace(), sp.ID(), "noc.fetch")
			t0 := time.Now()
			f, err := fetch(fsp)
			fetchDur = time.Since(t0)
			s.met.fetchSeconds.Observe(fetchDur.Seconds())
			if err != nil {
				s.met.fetchErrors.Inc()
				fsp.Event("fetch_error", trace.S("err", err.Error()))
			} else {
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
		total := time.Since(start)
		absorb()
		if err != nil {
			s.log.Warn("observation failed", "interval", item.Index, "err", err)
			sp.Event("observation_failed", trace.S("err", err.Error()))
			sp.End()
			continue // fetch failed (e.g. monitor churn); next interval retries
		}
		if res.Refreshed {
			s.met.retrains.Inc()
			retrain := total - fetchDur
			if retrain < 0 {
				retrain = 0
			}
			s.met.retrainSeconds.Observe(retrain.Seconds())
			sp.Event("retrain",
				trace.F("seconds", retrain.Seconds()),
				trace.B("model_degraded", res.Degraded),
				trace.I("model_stale_flows", int64(res.StaleFlows)))
			if res.Degraded {
				s.health.Set("detector", obs.StatusDegraded,
					fmt.Sprintf("model rebuilt with %d cached flows", res.StaleFlows))
			} else {
				s.health.Set("detector", obs.StatusOK, "model fresh")
			}
		}
		s.detMu.Lock()
		model := s.det.Model()
		s.detMu.Unlock()
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
		sp.Event("decision",
			trace.F("spe", res.Distance),
			trace.F("threshold", res.Threshold),
			trace.B("anomalous", res.Anomalous),
			trace.B("degraded", degraded),
			trace.B("refreshed", res.Refreshed))
		var ident *core.Identification
		if res.Anomalous {
			s.met.alarms.Inc()
			ident = s.identify(item, sp)
			culprits := make([]int, 0, 8)
			if ident != nil {
				for _, f := range ident.Flows {
					culprits = append(culprits, f.Flow)
				}
			}
			s.log.Warn("anomaly detected", "interval", item.Index,
				"distance", res.Distance, "threshold", res.Threshold, "degraded", degraded,
				"culprits", culprits)
			// Best effort, with the decision span's context attached.
			sent, _ := s.down.Broadcast(transport.Envelope{Alarm: &transport.Alarm{
				Interval:   item.Index,
				Distance:   res.Distance,
				Threshold:  res.Threshold,
				Degraded:   degraded,
				Identified: wireIdentified(ident),
			}, Trace: traceContext(sp)})
			s.met.alarmSends.Add(int64(sent))
			sp.Event("alarm_broadcast", trace.I("monitors", int64(sent)))
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
}

// fetchLocal implements core.FetchFunc from the NOC-side sketch state
// (§V-A variant). Called only from the processing goroutine.
func (s *Service) fetchLocal(sp *trace.Span) (core.Fetch, error) {
	sp.Event("local_sketches")
	rep := s.localMon.Report()
	if err := rep.Validate(s.cfg.Detector.SketchLen); err != nil {
		return core.Fetch{}, err
	}
	return core.AssembleFetch(s.cfg.Detector.Family, s.cfg.Detector.NumFlows, []core.SketchReport{rep})
}

// fetchSketches implements core.FetchFunc over the registered monitors: one
// tier pull (retry rounds, breaker, report validation — see tier.Pull), and,
// if required flows remain uncovered and DegradedPolicy allows it, each of
// them served from its last validated sketch report (randproj: per-flow
// columns from this NOC's cache; FD: each absent registrant's whole cached
// block, since FD state only merges at block granularity).
//
// sp is the enclosing "noc.fetch" span (nil when tracing is off); the pull
// records its rounds on it and the degraded fallback is added here.
func (s *Service) fetchSketches(sp *trace.Span) (core.Fetch, error) {
	m := s.cfg.Detector.NumFlows
	fd := s.cfg.Detector.Family == sketch.FamilyFD
	p := s.down.Pull(sp, traceContext(sp))
	if !fd {
		for _, rep := range p.Reports {
			for i, f := range rep.FlowIDs {
				// Monitor.Report allocates fresh slices per call, so
				// retaining the column is safe.
				if e := &s.sketchCache[f]; rep.Interval >= e.at || e.sketch == nil {
					*e = sketchEntry{sketch: rep.Sketches[i], mean: rep.Means[i], at: rep.Interval}
				}
			}
		}
	}

	miss := s.down.Uncovered(p)
	filled, cachedNewest := 0, int64(0)
	if len(miss) > 0 && fd {
		filled, cachedNewest = s.down.FillCached(p)
		miss = s.down.Uncovered(p)
	}
	reports := make([]core.SketchReport, 0, len(p.Reports))
	for _, rep := range p.Reports {
		reports = append(reports, rep)
	}
	out, err := core.AssembleFetch(s.cfg.Detector.Family, m, reports)
	if err != nil {
		return core.Fetch{}, err
	}
	// An aggregator that served part of its merge from its own degraded
	// cache tags the response, and the resulting model must be flagged
	// exactly like one rebuilt from this NOC's cache.
	out.Interval, out.Degraded, out.StaleFlows = p.Newest, p.Degraded, p.Stale
	if len(miss) > 0 && !fd {
		still := miss[:0]
		for _, f := range miss {
			e := s.sketchCache[f]
			if e.sketch == nil || !s.cfg.Degraded.Fresh(p.Ref, e.at) {
				still = append(still, f)
				continue
			}
			out.Sketches[f], out.Means[f] = e.sketch, e.mean
			if e.at > cachedNewest {
				cachedNewest = e.at
			}
			filled++
		}
		miss = still
	}
	if len(miss) > 0 {
		return core.Fetch{}, fmt.Errorf("%w: %d of %d flows missing after %d rounds",
			ErrCoverage, len(miss), m, p.Rounds)
	}
	if filled > 0 {
		out.Degraded = true
		out.StaleFlows += filled
		if out.Interval == 0 {
			out.Interval = cachedNewest
		}
		sp.Event("degraded_fallback",
			trace.I("stale_flows", int64(out.StaleFlows)),
			trace.I("rounds", int64(p.Rounds)))
		s.log.Warn("degraded sketch fetch", "stale_flows", out.StaleFlows,
			"rounds", p.Rounds, "interval", out.Interval)
	} else if p.Degraded {
		sp.Event("upstream_degraded", trace.I("stale_flows", int64(p.Stale)))
		s.log.Warn("degraded upstream sketch fetch", "stale_flows", p.Stale, "interval", p.Newest)
	}
	s.met.staleFlows.Set(float64(out.StaleFlows))
	return out, nil
}
