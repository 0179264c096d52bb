package noc

import (
	"time"

	"streampca/internal/core"
	"streampca/internal/tier"
	"streampca/internal/trace"
)

// defaultFlightTopK is how many residual flows a flight record attributes
// when Config.FlightTopK is unset; five covers the paper's evaluation
// scenarios (1–2 injected flows) with room for collateral contributions.
const defaultFlightTopK = 5

// FlightFlow is one flow's contribution to the anomalous residual, from
// core.Detector.Attribute (paper eq. 4).
type FlightFlow struct {
	Flow     int     `json:"flow"`
	Residual float64 `json:"residual"`
	Share    float64 `json:"share"`
}

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
	// Stale marks a sketch further than DegradedPolicy.MaxStaleness from
	// the decision interval in either direction — the symmetric distance of
	// DegradedPolicy.Fresh, so a registrant that raced ahead (negative age)
	// is flagged exactly when its cache entry would be refused.
	Stale       bool `json:"stale,omitempty"`
	BreakerOpen bool `json:"breaker_open,omitempty"`
}

// FlightRecord is one line of the NOC's alarm flight recorder: everything
// needed to reconstruct an alarm (or a degraded decision) offline — the
// trace to look up in /debug/trace, the SPE-vs-threshold comparison, which
// flows drove the residual, and how fresh each monitor's contribution was.
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
	// TopFlows ranks the flows driving the anomalous residual (alarmed
	// decisions only — quiet and merely-degraded records skip the
	// attribution; empty during warmup, when no model exists).
	TopFlows []FlightFlow `json:"top_flows,omitempty"`
	// Identified is the anomography pursuit's culprit set for an alarmed
	// decision, ranked by confidence; IdentifyExplained and IdentifyStop
	// are the pursuit's explained-energy fraction and stop reason.
	Identified        []FlightIdentified `json:"identified,omitempty"`
	IdentifyExplained float64            `json:"identify_explained,omitempty"`
	IdentifyStop      string             `json:"identify_stop,omitempty"`
	// Monitors is the contributing monitor set, sorted by ID.
	Monitors []FlightMonitor `json:"monitors,omitempty"`
}

// FlightIdentified is one anomography culprit on a flight record.
type FlightIdentified struct {
	Flow       int     `json:"flow"`
	Amount     float64 `json:"amount"`
	Confidence float64 `json:"confidence"`
}

// flightRecord appends one audit line for this decision. Called only from
// the processing goroutine (detMu discipline). ident is the identification
// already computed for an alarmed decision (nil otherwise).
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
	// Attribution is alarm-only: quiet and merely-degraded records carry no
	// residual ranking, so the common path never pays the projection.
	if !warmup && res.Anomalous && s.cfg.FlightTopK > 0 {
		s.detMu.Lock()
		top, err := s.det.Attribute(item.Volumes, s.cfg.FlightTopK)
		s.detMu.Unlock()
		if err == nil {
			for _, c := range top {
				rec.TopFlows = append(rec.TopFlows, FlightFlow{Flow: c.Flow, Residual: c.Residual, Share: c.Share})
			}
		}
	}
	if ident != nil {
		rec.IdentifyExplained = ident.ExplainedFrac
		rec.IdentifyStop = ident.Stop
		for _, f := range ident.Flows {
			rec.Identified = append(rec.Identified, FlightIdentified{Flow: f.Flow, Amount: f.Amount, Confidence: f.Confidence})
		}
	}
	for _, r := range s.down.Registrants() {
		fm := FlightMonitor{ID: r.ID, Flows: r.Flows, SketchInterval: r.SketchInterval, SketchAge: -1, BreakerOpen: r.BreakerOpen}
		if r.SketchInterval >= 0 {
			fm.SketchAge = item.Index - r.SketchInterval
			dist := fm.SketchAge
			if dist < 0 {
				dist = -dist
			}
			fm.Stale = s.cfg.Degraded.MaxStaleness > 0 && dist > s.cfg.Degraded.MaxStaleness
		}
		rec.Monitors = append(rec.Monitors, fm)
	}
	if err := fr.Record(rec); err != nil {
		s.log.Warn("flight record failed", "interval", item.Index, "err", err)
		return
	}
	s.met.flightRecords.Inc()
}
