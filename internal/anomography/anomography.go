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
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

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

// Culprit is one identified flow. It is also the culprit record of the NOC's
// alarm broadcasts and flight records (core.IdentifiedFlow and
// transport.IdentifiedFlow name it), hence the JSON tags.
type Culprit struct {
	// Flow is the global flow index.
	Flow int `json:"flow"`
	// Amount is the estimated injected volume on the flow (signed, in the
	// measurement's units), from the final joint least-squares fit.
	Amount float64 `json:"amount"`
	// Confidence is the flow's marginal explained-energy fraction at
	// selection time: the drop in residual energy it caused, divided by the
	// initial residual energy. In [0, 1]; the culprits sum to at most 1.
	Confidence float64 `json:"confidence"`
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

// Workspace is the storage Residual and Pursue work in. Kept across calls,
// it makes a pursuit allocate only its Result's culprits once it has grown to
// the problem's size. The zero value is ready; a Workspace is not safe for
// concurrent use.
type Workspace struct {
	resid, coeff, normal []float64
	sig, r0, r, rPrev    []float64
	b, amounts, confs, q []float64
	selected             []int
	inSet                []bool
	// grams[k-1] is the k×k signature Gram.
	grams []*mat.Matrix
	lsq   mat.LSQ
}

// Residual projects the centered measurement y onto the anomalous subspace:
// r = y − P_r(P_rᵀy). pr is m×rank (nil or zero columns → the model has no
// normal subspace and r = y). The result is w's storage, valid until w's
// next Residual.
func (w *Workspace) Residual(pr *mat.Matrix, y []float64) ([]float64, error) {
	m := len(y)
	if !mat.VecIsFinite(y) {
		return nil, fmt.Errorf("%w: non-finite measurement", ErrInput)
	}
	w.resid = append(w.resid[:0], y...)
	r := w.resid
	if pr == nil || pr.Cols() == 0 {
		return r, nil
	}
	if pr.Rows() != m {
		return nil, fmt.Errorf("%w: %d components rows for %d flows", ErrInput, pr.Rows(), m)
	}
	w.coeff, w.normal = slices.Grow(w.coeff[:0], pr.Cols())[:pr.Cols()], slices.Grow(w.normal[:0], m)[:m]
	if err := pr.TMulVecTo(w.coeff, y); err != nil { // rank entries â_jᵀy
		return nil, err
	}
	if err := pr.MulVecTo(w.normal, w.coeff); err != nil { // back to flow space: P_r·coeff
		return nil, err
	}
	for i := range r {
		r[i] -= w.normal[i]
	}
	return r, nil
}

// Pursue runs the greedy sparse-residual pursuit. pr is the m×rank matrix
// of principal components (column j = â_j); residual is the anomalous-
// subspace residual r₀ = (I − P_rP_rᵀ)(x − μ), e.g. from Residual (w's own
// included). The input slices are not modified.
func (w *Workspace) Pursue(pr *mat.Matrix, residual []float64, cfg Config) (Result, error) {
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
	w.sig = slices.Grow(w.sig[:0], m)[:m]
	sig := w.sig
	for j := 0; j < m; j++ {
		e := 1.0
		if rank > 0 {
			row := pr.RowView(j)
			e = 1 - mat.Dot(row, row)
		}
		sig[j] = e
	}

	w.r0, w.r = append(w.r0[:0], residual...), append(w.r[:0], residual...)
	r0, r := w.r0, w.r
	init2 := mat.Dot(r0, r0)
	res := Result{InitialSPE: math.Sqrt(init2), ResidualSPE: math.Sqrt(init2)}
	if init2 == 0 || (cfg.MinResidual > 0 && res.InitialSPE <= cfg.MinResidual) {
		res.Stop = StopEmpty
		return res, nil
	}

	w.inSet, w.rPrev = slices.Grow(w.inSet[:0], m)[:m], slices.Grow(w.rPrev[:0], m)[:m]
	clear(w.inSet)
	var (
		selected = w.selected[:0]
		amounts  = w.amounts[:0]
		confs    = w.confs[:0]
		inSet    = w.inSet
		prev2    = init2
		rPrev    = w.rPrev
	)
	defer func() { w.selected, w.amounts, w.confs = selected, amounts, confs }()
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
		if len(w.grams) < k {
			w.grams = append(w.grams, mat.NewMatrix(k, k))
		}
		g := w.grams[k-1]
		w.b = slices.Grow(w.b[:0], k)[:k]
		b := w.b
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
		a, err := w.lsq.Solve(g, b)
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
			w.q, w.normal = slices.Grow(w.q[:0], rank)[:rank], slices.Grow(w.normal[:0], m)[:m]
			q, up := w.q, w.normal
			clear(q)
			for u, fu := range selected {
				mat.AddScaled(q, a[u], pr.RowView(fu))
			}
			if err := pr.MulVecTo(up, q); err != nil { // back to flow space: P_r·q
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
			amounts, confs = append(amounts[:0], a...), append(confs, gain)
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
		amounts, confs = append(amounts[:0], a...), append(confs, gain)
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
	slices.SortStableFunc(res.Culprits, func(a, b Culprit) int {
		return cmp.Compare(b.Confidence, a.Confidence)
	})
	return res, nil
}
