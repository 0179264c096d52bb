package noc

import (
	"time"

	"streampca/internal/core"
	"streampca/internal/tier"
	"streampca/internal/trace"
)

// FlightMonitor describes one registered monitor's state at decision time:
// how fresh its last validated sketch report was and whether its circuit
// breaker currently excludes it from fetches.
type FlightMonitor struct {
	ID    string `json:"id"`
	Flows int    `json:"flows"`
	// SketchInterval is the interval of the monitor's last validated
	// sketch report and SketchAge the decision interval minus it; both are
	// -1 when the NOC has never validated a report from this monitor.
	SketchInterval int64 `json:"sketch_interval"`
	SketchAge      int64 `json:"sketch_age"`
	// Stale marks, in degraded mode, a sketch DegradedPolicy.Fresh refuses
	// at the decision interval — the symmetric distance, so a registrant
	// that raced ahead (negative age) is flagged exactly when its cache
	// entry would be refused.
	Stale       bool `json:"stale,omitempty"`
	BreakerOpen bool `json:"breaker_open,omitempty"`
}

// FlightRecord is one line of the NOC's alarm flight recorder: everything
// needed to reconstruct an alarm (or a degraded decision) offline — the
// trace to look up in /debug/trace, the SPE-vs-threshold comparison, the
// flows Identify named, and how fresh each monitor's contribution was.
type FlightRecord struct {
	Kind      string   `json:"kind"` // "noc.decision"
	Trace     trace.ID `json:"trace"`
	Interval  int64    `json:"interval"`
	UnixNanos int64    `json:"unix_ns"`
	// SPE is the distance d(y) and Threshold the Q-statistic limit δ_α it
	// was compared against (unset when ThresholdUnavailable or Warmup).
	SPE                  float64 `json:"spe"`
	Threshold            float64 `json:"threshold"`
	ThresholdUnavailable bool    `json:"threshold_unavailable,omitempty"`
	Anomalous            bool    `json:"anomalous"`
	Warmup               bool    `json:"warmup,omitempty"`
	// Degraded is the decision-level flag; VectorDegraded/ModelDegraded
	// split it into its two causes (cached volumes vs cached sketches).
	Degraded         bool `json:"degraded"`
	VectorDegraded   bool `json:"vector_degraded,omitempty"`
	StaleVolumeFlows int  `json:"stale_volume_flows,omitempty"`
	ModelDegraded    bool `json:"model_degraded,omitempty"`
	ModelStaleFlows  int  `json:"model_stale_flows,omitempty"`
	Refreshed        bool `json:"refreshed,omitempty"`
	// Identified is the anomography pursuit's culprit set for an alarmed
	// decision, ranked by confidence; IdentifyExplained and IdentifyStop
	// are the pursuit's explained-energy fraction and stop reason.
	Identified        []core.IdentifiedFlow `json:"identified,omitempty"`
	IdentifyExplained float64               `json:"identify_explained,omitempty"`
	IdentifyStop      string                `json:"identify_stop,omitempty"`
	// Monitors is the contributing monitor set, sorted by ID.
	Monitors []FlightMonitor `json:"monitors,omitempty"`
}

// flightRecord appends one audit line for this decision. Called only from
// the processing goroutine. ident is the identification already computed
// for an alarmed decision (nil otherwise).
func (s *Service) flightRecord(item tier.Interval, res core.Decision, warmup, degraded bool, ident *core.Identification) {
	fr := s.cfg.FlightRecorder
	if fr == nil {
		return
	}
	rec := FlightRecord{
		Kind:                 "noc.decision",
		Trace:                trace.ForInterval(item.Index),
		Interval:             item.Index,
		UnixNanos:            time.Now().UnixNano(),
		SPE:                  res.Distance,
		Threshold:            res.Threshold,
		ThresholdUnavailable: res.ThresholdUnavailable,
		Anomalous:            res.Anomalous,
		Warmup:               warmup,
		Degraded:             degraded,
		VectorDegraded:       item.Stale > 0,
		StaleVolumeFlows:     item.Stale,
		ModelDegraded:        res.Degraded,
		ModelStaleFlows:      res.StaleFlows,
		Refreshed:            res.Refreshed,
	}
	if ident != nil {
		rec.Identified = ident.Flows
		rec.IdentifyExplained = ident.ExplainedFrac
		rec.IdentifyStop = ident.Stop
	}
	pol := s.down.Degraded()
	for _, r := range s.down.Registrants() {
		fm := FlightMonitor{ID: r.ID, Flows: r.Flows, SketchInterval: r.SketchInterval, SketchAge: -1, BreakerOpen: r.BreakerOpen}
		if r.SketchInterval >= 0 {
			fm.SketchAge = item.Index - r.SketchInterval
			fm.Stale = pol.Enabled && !pol.Fresh(item.Index, r.SketchInterval)
		}
		rec.Monitors = append(rec.Monitors, fm)
	}
	if err := fr.Record(rec); err != nil {
		s.log.Warn("flight record failed", "interval", item.Index, "err", err)
		return
	}
	s.met.flightRecords.Inc()
}
