package core

import (
	"fmt"

	"streampca/internal/anomography"
	"streampca/internal/mat"
)

// IdentifiedFlow is one culprit flow from Identify, in the wire-friendly
// shape the NOC attaches to alarm broadcasts and flight records.
type IdentifiedFlow struct {
	// Flow is the global flow index.
	Flow int
	// Amount is the estimated injected volume (signed, measurement units).
	Amount float64
	// Confidence is the flow's marginal explained-energy fraction, in [0,1].
	Confidence float64
}

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

// principal returns the m×rank matrix of in-force principal components
// (column j = â_j) — the P_r the attribution and identification paths
// project against. Returns nil for a rank-0 model.
func (d *Detector) principal() *mat.Matrix {
	r := d.model.Rank
	if r <= 0 {
		return nil
	}
	m := d.cfg.NumFlows
	pr := mat.NewMatrix(m, r)
	for i := 0; i < m; i++ {
		src := d.model.Components.RowView(i)
		copy(pr.RowView(i), src[:r])
	}
	return pr
}

// anomalousResidual centers x against the model means and projects it onto
// the anomalous subspace. Both Attribute and Identify start here, so the two
// views of an alarm are computed from the same residual bit for bit.
func (d *Detector) anomalousResidual(x []float64, pr *mat.Matrix) ([]float64, error) {
	m := d.cfg.NumFlows
	if len(x) != m {
		return nil, fmt.Errorf("%w: vector of %d for %d flows", ErrInput, len(x), m)
	}
	y := make([]float64, m)
	for j, v := range x {
		y[j] = v - d.model.Means[j]
	}
	return anomography.Residual(pr, y)
}

// Identify runs the anomography pursuit on a measurement against the
// in-force model: it returns the ranked set of flows whose injections
// explain the anomalous residual, stopping when the unexplained residual
// falls below the model's Q-threshold (so identification ends exactly where
// the alarm would), when maxK culprits are found, or when the next flow
// would explain a negligible fraction of the energy. maxK ≤ 0 uses
// anomography.DefaultMaxK. Call it on alarmed measurements; on quiet ones
// it returns an empty identification.
func (d *Detector) Identify(x []float64, maxK int) (*Identification, error) {
	if d.model == nil {
		return nil, ErrNoModel
	}
	pr := d.principal()
	r0, err := d.anomalousResidual(x, pr)
	if err != nil {
		return nil, err
	}
	cfg := anomography.Config{
		MaxK:         maxK,
		MinSignature: anomography.DefaultMinSignature(d.cfg.NumFlows, d.model.Rank),
	}
	if !d.model.ThresholdUnavailable {
		cfg.MinResidual = d.model.Threshold
	}
	res, err := anomography.Pursue(pr, r0, cfg)
	if err != nil {
		return nil, err
	}
	id := &Identification{
		Flows:         make([]IdentifiedFlow, len(res.Culprits)),
		InitialSPE:    res.InitialSPE,
		ResidualSPE:   res.ResidualSPE,
		ExplainedFrac: res.ExplainedFrac,
		Stop:          string(res.Stop),
	}
	for i, c := range res.Culprits {
		id.Flows[i] = IdentifiedFlow{Flow: c.Flow, Amount: c.Amount, Confidence: c.Confidence}
	}
	return id, nil
}
