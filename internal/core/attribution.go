package core

import (
	"sort"
)

// FlowContribution describes one flow's share of an anomalous residual.
type FlowContribution struct {
	// Flow is the global flow index.
	Flow int
	// Residual is the flow's component of the anomalous-subspace residual
	// (signed: positive = more traffic than the normal pattern predicts).
	Residual float64
	// Share is Residual²/‖residual‖², in [0, 1].
	Share float64
}

// Attribute decomposes a measurement into its normal and anomalous parts
// (paper eq. 4) and returns the topK flows ranked by their contribution to
// the anomalous residual — the raw view of which OD flows drive an alarm.
// The projection is the one Identify starts from (anomalousResidual).
// topK ≤ 0 returns all flows.
//
// Attribute ranks raw residual coordinates; when PCA correlates flows, the
// projection smears a single-flow spike across its correlated peers and
// this ranking can misattribute. Identify undoes the smear — prefer it for
// diagnosis and treat Attribute as the cheap residual inspection.
func (d *Detector) Attribute(x []float64, topK int) ([]FlowContribution, error) {
	if d.model == nil {
		return nil, ErrNoModel
	}
	residual, err := d.anomalousResidual(x, d.principal())
	if err != nil {
		return nil, err
	}
	var total float64
	for _, v := range residual {
		total += v * v
	}
	out := make([]FlowContribution, len(residual))
	for i, v := range residual {
		share := 0.0
		if total > 0 {
			share = v * v / total
		}
		out[i] = FlowContribution{Flow: i, Residual: v, Share: share}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Share > out[b].Share })
	if topK > 0 && topK < len(out) {
		out = out[:topK]
	}
	return out, nil
}
