package core

import (
	"fmt"

	"streampca/internal/anomography"
)

// IdentifiedFlow is one culprit flow from Identify: the anomography record
// itself, which the NOC attaches to alarm broadcasts and flight records.
type IdentifiedFlow = anomography.Culprit

// Identification is the full result of identifying an alarmed measurement.
type Identification struct {
	// Flows are the culprits, ranked by Confidence descending.
	Flows []IdentifiedFlow
	// InitialSPE and ResidualSPE bracket the explanation: the residual
	// distance before the pursuit and after removing the culprits' traffic.
	InitialSPE  float64
	ResidualSPE float64
	// ExplainedFrac is the fraction of residual energy the culprits explain.
	ExplainedFrac float64
	// Stop is why the pursuit terminated (anomography.StopReason string).
	Stop string
}

// Identify runs the anomography pursuit on a measurement against the
// in-force model: it returns the ranked set of flows whose injections
// explain the anomalous residual, stopping when the unexplained residual
// falls below the model's Q-threshold (so identification ends exactly where
// the alarm would), when maxK culprits are found, or when the next flow
// would explain a negligible fraction of the energy. maxK ≤ 0 uses
// anomography.DefaultMaxK. Call it on alarmed measurements; on quiet ones
// it returns an empty identification. The pursuit works in storage the
// detector keeps: a call allocates only the Identification and its culprits.
func (d *Detector) Identify(x []float64, maxK int) (*Identification, error) {
	if d.model == nil {
		return nil, ErrNoModel
	}
	m := d.cfg.NumFlows
	if len(x) != m {
		return nil, fmt.Errorf("%w: vector of %d for %d flows", ErrInput, len(x), m)
	}
	if len(d.y) != m {
		d.y = make([]float64, m)
	}
	// Centre x against the model means and project it onto the anomalous
	// subspace, the complement of Components = P_r.
	for j, v := range x {
		d.y[j] = v - d.model.Means[j]
	}
	r0, err := d.pursuit.Residual(d.model.Components, d.y)
	if err != nil {
		return nil, err
	}
	if d.model.Rank >= m {
		clear(r0) // no anomalous subspace is left, as in Distance
	}
	cfg := anomography.Config{
		MaxK:         maxK,
		MinSignature: anomography.DefaultMinSignature(d.cfg.NumFlows, d.model.Rank),
	}
	if !d.model.ThresholdUnavailable {
		cfg.MinResidual = d.model.Threshold
	}
	res, err := d.pursuit.Pursue(d.model.Components, r0, cfg)
	if err != nil {
		return nil, err
	}
	return &Identification{
		Flows:         res.Culprits,
		InitialSPE:    res.InitialSPE,
		ResidualSPE:   res.ResidualSPE,
		ExplainedFrac: res.ExplainedFrac,
		Stop:          string(res.Stop),
	}, nil
}
