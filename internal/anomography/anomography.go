// Package anomography identifies which OD flows caused a network-wide
// volume alarm. The subspace detector (paper §3) answers only *whether* an
// interval is anomalous; this package answers *which flows*, the framing
// Kasai et al. (arXiv:1608.05493) call anomography.
//
// The core solver, Pursue, is a greedy sparse-residual pursuit in the style
// of orthogonal matching pursuit, run over the anomalous subspace. A unit
// injection on flow j perturbs the measurement by e_j, whose anomalous-
// subspace signature is s_j = (I − P_rP_rᵀ)e_j with P_r the top-r principal
// components. Because the working residual r stays orthogonal to the normal
// subspace throughout, the matching inner product collapses to a coordinate
// read — ⟨r, s_j⟩ = r[j] — and the per-flow selection score is
// |r[j]| / ‖s_j‖ with ‖s_j‖² = 1 − ‖p_j‖² (p_j = row j of P_r). Each
// iteration re-solves the small least-squares fit over all selected
// signatures and re-projects, so earlier amounts are corrected as new flows
// join (the "orthogonal" in OMP). This is strictly better than ranking raw
// residual coordinates: when PCA smears a single-flow spike across
// correlated flows, the smear lives in the selected flow's signature and is
// explained away rather than misattributed.
//
// PCP (pcp.go) is the offline comparator: relaxed Principal Component
// Pursuit via inexact ALM (Wang et al., arXiv:1104.2156), decomposing a
// traffic-matrix window into low-rank + sparse.
package anomography

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"streampca/internal/mat"
)

// ErrInput flags malformed solver inputs (shape mismatch, non-finite data).
var ErrInput = errors.New("anomography: invalid input")

const (
	// DefaultMaxK bounds the culprit set when the caller does not.
	DefaultMaxK = 8
	// DefaultMinGainFrac stops the pursuit when the next flow explains less
	// than this fraction of the initial residual energy.
	DefaultMinGainFrac = 1e-3
	// minSignatureEnergy guards flows whose anomalous signature is
	// numerically empty (the flow lies inside the normal subspace, e.g. a
	// rank-capped FD block): such flows are unidentifiable and excluded
	// rather than allowed to blow up the normalized score.
	minSignatureEnergy = 1e-9
)

// DefaultMinSignature returns the selection floor Identify-style callers
// should pass as Config.MinSignature: a third of the mean signature energy
// 1 − rank/m (trace(P_rP_rᵀ) = rank, so signatures average to exactly that).
// A flow far below the mean has been rotated into the normal subspace —
// typically by a window that retrained on the anomaly itself — and its
// residual coordinate must be amplified by 1/‖s_j‖² ≫ 1 to be read as an
// injection, which turns noise into confident misattribution.
func DefaultMinSignature(m, rank int) float64 {
	if m <= 0 || rank <= 0 || rank >= m {
		return 0
	}
	return (1 - float64(rank)/float64(m)) / 3
}

// Config tunes one Pursue call.
type Config struct {
	// MaxK caps the number of culprits (≤ 0 → DefaultMaxK).
	MaxK int
	// MinSignature excludes flows whose anomalous-signature energy
	// ‖s_j‖² = 1 − ‖p_j‖² falls below it: such flows live (almost) inside
	// the normal subspace and cannot be identified from the residual.
	// ≤ 0 keeps only the numeric minSignatureEnergy guard; detector-backed
	// callers should pass DefaultMinSignature(m, rank).
	MinSignature float64
	// MinResidual stops the pursuit once the residual SPE distance drops to
	// or below it — pass the detector's Q-threshold δ_α so identification
	// stops exactly when the remaining residual would no longer alarm.
	// ≤ 0 disables the threshold stop.
	MinResidual float64
	// MinGainFrac stops when a selection's marginal explained-energy
	// fraction falls below it (≤ 0 → DefaultMinGainFrac).
	MinGainFrac float64
}

// StopReason records why the pursuit terminated.
type StopReason string

const (
	// StopThreshold: residual SPE fell to or below Config.MinResidual.
	StopThreshold StopReason = "threshold"
	// StopMaxK: the culprit cap was reached with residual still above it.
	StopMaxK StopReason = "max_k"
	// StopGain: the best remaining flow explained a negligible fraction of
	// the initial energy; it was discarded and the pursuit ended.
	StopGain StopReason = "gain"
	// StopExhausted: no identifiable flow remained (all selected,
	// signature-degenerate, or zero residual coordinates).
	StopExhausted StopReason = "exhausted"
	// StopEmpty: the input residual was already at or below the threshold,
	// so there was nothing to identify.
	StopEmpty StopReason = "empty"
)

// Culprit is one identified flow.
type Culprit struct {
	// Flow is the global flow index.
	Flow int
	// Amount is the estimated injected volume on the flow (signed, in the
	// measurement's units), from the final joint least-squares fit.
	Amount float64
	// Confidence is the flow's marginal explained-energy fraction at
	// selection time: the drop in residual energy it caused, divided by the
	// initial residual energy. In [0, 1]; the culprits sum to at most 1.
	Confidence float64
}

// Result is a full identification.
type Result struct {
	// Culprits are ranked by Confidence descending (selection order breaks
	// ties), so Culprits[:k] is the top-k set for precision@k.
	Culprits []Culprit
	// InitialSPE and ResidualSPE are the residual's SPE distance (the same
	// √SPE the detector compares against δ_α) before and after explanation.
	InitialSPE  float64
	ResidualSPE float64
	// ExplainedFrac is 1 − ResidualSPE²/InitialSPE².
	ExplainedFrac float64
	// Iterations counts accepted selections (== len(Culprits)).
	Iterations int
	// Stop is the termination reason.
	Stop StopReason
}

// Residual projects the centered measurement y onto the anomalous subspace:
// r = y − P_r(P_rᵀy). pr is m×rank (nil or zero columns → the model has no
// normal subspace and r = y).
func Residual(pr *mat.Matrix, y []float64) ([]float64, error) {
	m := len(y)
	if !mat.VecIsFinite(y) {
		return nil, fmt.Errorf("%w: non-finite measurement", ErrInput)
	}
	r := append([]float64(nil), y...)
	if pr == nil || pr.Cols() == 0 {
		return r, nil
	}
	if pr.Rows() != m {
		return nil, fmt.Errorf("%w: %d components rows for %d flows", ErrInput, pr.Rows(), m)
	}
	coeff, err := pr.TMulVec(y) // rank entries â_jᵀy
	if err != nil {
		return nil, err
	}
	normal, err := pr.MulVec(coeff) // back to flow space: P_r·coeff
	if err != nil {
		return nil, err
	}
	for i := range r {
		r[i] -= normal[i]
	}
	return r, nil
}

// Pursue runs the greedy sparse-residual pursuit. pr is the m×rank matrix
// of principal components (column j = â_j); residual is the anomalous-
// subspace residual r₀ = (I − P_rP_rᵀ)(x − μ), e.g. from Residual. The
// input slices are not modified.
func Pursue(pr *mat.Matrix, residual []float64, cfg Config) (Result, error) {
	m := len(residual)
	rank := 0
	if pr != nil {
		rank = pr.Cols()
	}
	if rank > 0 && pr.Rows() != m {
		return Result{}, fmt.Errorf("%w: %d components rows for %d flows", ErrInput, pr.Rows(), m)
	}
	if !mat.VecIsFinite(residual) {
		return Result{}, fmt.Errorf("%w: non-finite residual", ErrInput)
	}
	maxK := cfg.MaxK
	if maxK <= 0 {
		maxK = DefaultMaxK
	}
	if maxK > m {
		maxK = m
	}
	gainFrac := cfg.MinGainFrac
	if gainFrac <= 0 {
		gainFrac = DefaultMinGainFrac
	}
	minSig := cfg.MinSignature
	if minSig < minSignatureEnergy {
		minSig = minSignatureEnergy
	}

	// ‖s_j‖² = 1 − ‖p_j‖², precomputed once: the selection loop reads it
	// every iteration for every flow.
	sig := make([]float64, m)
	for j := 0; j < m; j++ {
		e := 1.0
		if rank > 0 {
			row := pr.RowView(j)
			e = 1 - mat.Dot(row, row)
		}
		sig[j] = e
	}

	r0 := append([]float64(nil), residual...)
	r := append([]float64(nil), residual...)
	init2 := mat.Dot(r0, r0)
	res := Result{InitialSPE: math.Sqrt(init2), ResidualSPE: math.Sqrt(init2)}
	if init2 == 0 || (cfg.MinResidual > 0 && res.InitialSPE <= cfg.MinResidual) {
		res.Stop = StopEmpty
		return res, nil
	}

	var (
		selected []int
		amounts  []float64
		confs    []float64
		inSet    = make([]bool, m)
		prev2    = init2
		rPrev    = make([]float64, m)
	)
	res.Stop = StopMaxK
	for len(selected) < maxK {
		// Match: argmax over unselected identifiable flows of the
		// normalized score r[j]²/‖s_j‖². Strict > keeps ties deterministic
		// (lowest flow index wins).
		best, bestScore := -1, 0.0
		for j := 0; j < m; j++ {
			if inSet[j] || sig[j] < minSig {
				continue
			}
			if sc := r[j] * r[j] / sig[j]; sc > bestScore {
				best, bestScore = j, sc
			}
		}
		if best < 0 || bestScore == 0 {
			res.Stop = StopExhausted
			break
		}
		selected = append(selected, best)
		inSet[best] = true

		// Orthogonal step: jointly re-fit all selected amounts. The Gram of
		// the signatures is G[u,v] = ⟨s_u, s_v⟩ = δ_uv − p_u·p_v and the
		// right-hand side is b_u = ⟨r₀, s_u⟩ = r₀[u].
		k := len(selected)
		g := mat.NewMatrix(k, k)
		b := make([]float64, k)
		for u, fu := range selected {
			b[u] = r0[fu]
			for v, fv := range selected {
				val := 0.0
				if rank > 0 {
					val = -mat.Dot(pr.RowView(fu), pr.RowView(fv))
				}
				if u == v {
					val++
				}
				g.Set(u, v, val)
			}
		}
		a, err := mat.LeastSquares(g, b)
		if err != nil {
			// Degenerate signature set (near-collinear flows): drop the
			// flow that broke it and keep what is already explained.
			selected = selected[:k-1]
			inSet[best] = false
			res.Stop = StopExhausted
			break
		}

		// Re-project: r = r₀ − Σ_u a_u s_u. The scatter part is k coordinate
		// updates; the normal-subspace correction is P_r(Σ_u a_u p_u).
		copy(rPrev, r)
		copy(r, r0)
		for u, fu := range selected {
			r[fu] -= a[u]
		}
		if rank > 0 {
			q := make([]float64, rank)
			for u, fu := range selected {
				mat.AddScaled(q, a[u], pr.RowView(fu))
			}
			up, err := pr.MulVec(q) // back to flow space: P_r·q
			if err != nil {
				return res, err
			}
			for i := 0; i < m; i++ {
				r[i] += up[i]
			}
		}
		cur2 := mat.Dot(r, r)
		gain := (prev2 - cur2) / init2

		if cfg.MinResidual > 0 && math.Sqrt(cur2) <= cfg.MinResidual {
			// The remaining residual would no longer alarm: accept the flow
			// and stop, regardless of how small its marginal gain was.
			amounts, confs = a, append(confs, gain)
			prev2 = cur2
			res.Stop = StopThreshold
			break
		}
		if gain < gainFrac {
			// The best remaining flow explains ~nothing — it is noise, not
			// a culprit. Revert the selection and stop.
			selected = selected[:k-1]
			inSet[best] = false
			copy(r, rPrev)
			res.Stop = StopGain
			break
		}
		amounts, confs = a, append(confs, gain)
		prev2 = cur2
	}

	res.Iterations = len(selected)
	res.ResidualSPE = math.Sqrt(prev2)
	if init2 > 0 {
		res.ExplainedFrac = 1 - prev2/init2
	}
	res.Culprits = make([]Culprit, len(selected))
	for i, f := range selected {
		res.Culprits[i] = Culprit{Flow: f, Amount: amounts[i], Confidence: confs[i]}
	}
	// Rank by explained energy; selection order breaks ties so the ranking
	// is deterministic.
	sort.SliceStable(res.Culprits, func(a, b int) bool {
		return res.Culprits[a].Confidence > res.Culprits[b].Confidence
	})
	return res, nil
}
