package noc

import (
	"time"

	"streampca/internal/core"
	"streampca/internal/tier"
	"streampca/internal/trace"
	"streampca/internal/transport"
)

// identify runs the anomography pursuit for an alarmed decision. Called
// only from the processing goroutine; returns nil when identification is
// disabled or failed. The pursuit consumes only the in-force model and the
// assembled measurement vector — both are byte-identical between flat and
// federated topologies (DESIGN.md §16), so identifications are too
// (DESIGN.md §17, gated by the federated identification differential e2e).
func (s *Service) identify(item tier.Interval, sp *trace.Span) *core.Identification {
	if s.cfg.IdentifyMaxK < 0 {
		return nil
	}
	t0 := time.Now()
	s.detMu.Lock()
	id, err := s.det.Identify(item.Volumes, s.cfg.IdentifyMaxK)
	s.detMu.Unlock()
	s.met.identifySeconds.Observe(time.Since(t0).Seconds())
	if err != nil {
		s.met.identifyErrors.Inc()
		s.log.Warn("identification failed", "interval", item.Index, "err", err)
		sp.Event("identify_failed", trace.S("err", err.Error()))
		return nil
	}
	s.met.identifies.Inc()
	s.met.identifiedFlows.Set(float64(len(id.Flows)))
	sp.Event("identify",
		trace.I("culprits", int64(len(id.Flows))),
		trace.F("explained_frac", id.ExplainedFrac),
		trace.F("residual_spe", id.ResidualSPE),
		trace.S("stop", id.Stop))
	return id
}

// wireIdentified converts an identification to the alarm-broadcast shape.
func wireIdentified(id *core.Identification) []transport.IdentifiedFlow {
	if id == nil || len(id.Flows) == 0 {
		return nil
	}
	out := make([]transport.IdentifiedFlow, len(id.Flows))
	for i, f := range id.Flows {
		out[i] = transport.IdentifiedFlow{Flow: f.Flow, Amount: f.Amount, Confidence: f.Confidence}
	}
	return out
}
