package oracle

import (
	"math"

	"streampca/internal/core"
	"streampca/internal/mat"
	"streampca/internal/pca"
)

// ModelCheckConfig parameterizes the spectral and detection checks.
type ModelCheckConfig struct {
	// Epsilon is the VH approximation parameter the pipeline was configured
	// with; the checks widen it to EffectiveEpsilon for the sketch length.
	Epsilon float64
	// Alpha is the detector's false-alarm rate, used to fit the exact
	// reference threshold.
	Alpha float64
	// SketchLen is l, for the EffectiveEpsilon widening. 0 falls back to the
	// window length (the JL term at its smallest — conservative).
	SketchLen int
	// DeadBand is the relative margin around the thresholds inside which
	// alarm disagreement is tolerated (the bounds allow the two detectors to
	// land on opposite sides of δ for borderline distances). 0 selects 0.2.
	DeadBand float64
}

// svSignificance gates the per-component Lemma 5 ratio check: components
// carrying less than this fraction of the total spectral energy are skipped
// (their relative error is dominated by the JL noise floor, which the paper's
// multiplicative bound does not model for vanishing singular values).
const svSignificance = 1e-3

// gapSignificance gates the Theorem 2 check: the additive bound divides by
// the eigengap λ²_r − λ²_{r+1}, so it is vacuous (astronomically large) when
// the gap is a negligible fraction of the spectral energy.
const gapSignificance = 1e-6

// Reference is the exact side of the paper's spectral bounds for one sketch
// model: what Lemmas 5–6 and Theorem 2 compare the model against, measured
// on the true window it summarizes. CheckModel asserts on it; eval.CheckBounds
// prints it.
type Reference struct {
	// Exact is the exact PCA (internal/pca) of the centered window Yc: η_j
	// descending, to set against the model's λ̂_j (Lemma 5).
	Exact *pca.Model
	// Det is the exact detector at the sketch model's rank: the d_Y(y) that
	// Theorem 2 sets against d_Ẑ(y), with the exact Q-statistic threshold.
	Det *pca.Detector
	// Energy is ‖Yc‖²_F and CovDiff is ‖V·diag(λ̂²)·Vᵀ − YcᵀYc‖_F, the two
	// sides of Lemma 6.
	Energy  float64
	CovDiff float64
	// Gap is η²_r − η²_{r+1}, the denominator of Theorem 2's bound; 0 when the
	// rank leaves no cut inside the spectrum.
	Gap float64
}

// MeasureModel fits the exact reference for model on the n×m window of raw
// measurement vectors it was built from. window is centered in place.
func MeasureModel(model *core.Model, window *mat.Matrix, alpha float64) (Reference, error) {
	var ref Reference
	n := window.Rows()
	means := window.CenterColumns()
	for i := 0; i < n; i++ {
		for _, v := range window.RowView(i) {
			ref.Energy += v * v
		}
	}
	// Same kernel, same ordering convention (descending) as the detector
	// applies to the sketch matrix.
	gram := window.Gram()
	var err error
	if ref.Exact, err = pca.NewModel(gram, means, n); err != nil {
		return ref, err
	}
	if ref.Det, err = pca.NewDetector(ref.Exact, model.Rank, alpha); err != nil {
		return ref, err
	}
	ref.CovDiff = covarianceDiffFrob(model, gram)
	if r, eta := model.Rank, ref.Exact.Singular; r >= 1 && r < len(eta) {
		ref.Gap = eta[r-1]*eta[r-1] - eta[r]*eta[r]
	}
	return ref, nil
}

// CheckModel differentially validates one NOC model and the decision it
// produced against an exact batch-PCA reference fitted on the true window
// matrix.
//
// model must be the detector's model in force for the decision, x the raw
// measurement vector the decision classified, and vw a VectorWindow that was
// fed every completed interval vector. The exact reference window is the one
// ending at model.BuiltAt; if it cannot be reconstructed (gaps, insufficient
// history) or the model was built from a degraded fetch (the paper's bounds
// do not cover cache-substituted sketches), the check is skipped and ok is
// false.
//
// Checks, in order: Lemma 5 (eq. 25) — squared singular values of the sketch
// model within (1±3ε) of the exact window's, for energy-significant
// components; Lemma 6 (eq. 26) — the model's implied covariance
// V·diag(λ̂²)·Vᵀ within √6·ε·‖Yc‖²_F of YcᵀYc in Frobenius norm; Theorem 2 —
// the sketch anomaly distance within the additive bound of the exact one; and
// alarm agreement with an exact Q-statistic detector outside a dead band.
func CheckModel(model *core.Model, dec core.Decision, x []float64, vw *VectorWindow, cfg ModelCheckConfig) (Result, bool) {
	var res Result
	if model == nil || model.Degraded || model.Components == nil {
		return res, false
	}
	m := len(model.Singular)
	if m == 0 || len(x) != m || model.Components.Rows() != m || model.Components.Cols() != m {
		return res, false
	}
	y, _, okWin := vw.MatrixEnding(model.BuiltAt)
	if !okWin || y.Cols() != m {
		return res, false
	}
	n := y.Rows()
	l := cfg.SketchLen
	if l <= 0 {
		l = n
	}
	eps := EffectiveEpsilon(cfg.Epsilon, n, l)
	deadBand := cfg.DeadBand
	if deadBand == 0 {
		deadBand = 0.2
	}

	ref, err := MeasureModel(model, y, cfg.Alpha)
	if err != nil {
		res.Checks++
		res.Violations = append(res.Violations, Violation{
			Check: "exact-reference", Err: math.Inf(1), Bound: 0,
			Detail: "exact window reference failed: " + err.Error(),
		})
		return res, true
	}
	exactVals := make([]float64, m) // η²_j descending
	total := 0.0
	for j, eta := range ref.Exact.Singular {
		exactVals[j] = eta * eta
		total += exactVals[j]
	}

	// Lemma 5 — per-component squared-singular-value ratios.
	worst, worstJ := 0.0, -1
	for j := 0; j < m; j++ {
		exact := exactVals[j]
		if exact <= svSignificance*total || total == 0 {
			break // descending: everything after is insignificant too
		}
		hat := model.Singular[j] * model.Singular[j]
		if hat == 0 {
			// Truncated spectra (FD's ≤ Σ2ℓ basis rows) carry exact-zero tail
			// values by construction; the energy they omit is still covered
			// by Lemma 6's global covariance bound below, so only estimated
			// components face the ratio check.
			continue
		}
		if e := math.Abs(hat-exact) / exact; e > worst {
			worst, worstJ = e, j
		}
	}
	if worstJ >= 0 {
		res.check("lemma5", worst, 3*eps,
			"component %d: sketch λ̂² %.6g vs exact λ² %.6g", worstJ,
			model.Singular[worstJ]*model.Singular[worstJ], exactVals[worstJ])
	}

	// Lemma 6 — ‖Â − A‖_F ≤ √6·ε·‖Yc‖²_F with Â from the model's own
	// eigenpairs and A = YcᵀYc exactly.
	if ref.Energy > 0 {
		res.check("lemma6", ref.CovDiff/ref.Energy, math.Sqrt(6)*eps,
			"‖Ahat−A‖_F = %.6g, ‖Yc‖²_F = %.6g", ref.CovDiff, ref.Energy)
	}

	// Exact batch detector: distance of x against the exact subspace at the
	// model's rank. len(x) == m was checked above, the only error either call
	// can return.
	exactDist, _ := ref.Det.Distance(x)
	yc, _ := ref.Exact.Center(x)

	// Theorem 2 — additive distance bound, meaningful only with a real
	// eigengap at the subspace cut. allow is carried into the alarm-agreement
	// gate: classification differences the distance bound permits are not
	// violations.
	allow := math.Inf(1)
	if ref.Gap > gapSignificance*total && total > 0 {
		yNorm := math.Sqrt(mat.Dot(yc, yc))
		allow = 2 * math.Sqrt(3*eps) * ref.Energy * yNorm / ref.Gap
		res.check("theorem2", math.Abs(dec.Distance-exactDist), allow,
			"sketch distance %.6g vs exact %.6g (gap %.3g, ‖y‖ %.3g)",
			dec.Distance, exactDist, ref.Gap, yNorm)
	}

	// Decision consistency — with a usable threshold, the alarm bit must be
	// exactly Distance > Threshold on the decision's own final numbers. This
	// catches inverted comparisons and stale-threshold bookkeeping bugs
	// regardless of how loose the approximation bounds are.
	if !dec.ThresholdUnavailable {
		if dec.Anomalous != (dec.Distance > dec.Threshold) {
			res.check("decision-consistent", 1, 0,
				"Anomalous=%v but d %.6g vs δ %.6g", dec.Anomalous, dec.Distance, dec.Threshold)
		} else {
			res.Checks++
		}
	}

	// Alarm agreement — the sketch and exact detectors must classify
	// identically whenever the disagreement cannot be explained by the
	// approximation bounds: the exact margin exceeds the dead band AND the
	// sketch-exact distance gap exceeds the Theorem 2 allowance. An exact
	// spectrum with no control limit (+Inf, see pca.NewDetector) has nothing
	// to agree with.
	exactTh := ref.Det.Threshold()
	if !dec.ThresholdUnavailable && !model.ThresholdUnavailable && !math.IsInf(exactTh, 1) {
		gapExplains := math.Abs(dec.Distance-exactDist) <= allow
		if dec.Anomalous && exactDist < (1-deadBand)*exactTh && !gapExplains {
			res.check("alarm-agreement", 1, 0,
				"sketch alarmed (d %.6g > δ %.6g) but exact is clearly normal (d %.6g, δ %.6g)",
				dec.Distance, dec.Threshold, exactDist, exactTh)
		} else if !dec.Anomalous && exactDist > (1+deadBand)*exactTh && !gapExplains {
			res.check("alarm-agreement", 1, 0,
				"sketch stayed quiet (d %.6g ≤ δ %.6g) but exact clearly alarms (d %.6g, δ %.6g)",
				dec.Distance, dec.Threshold, exactDist, exactTh)
		} else {
			res.Checks++ // agreement evaluated, no violation
		}
	}
	return res, true
}

// covarianceDiffFrob computes ‖V·diag(λ̂²)·Vᵀ − A‖_F without materializing
// the m×m reconstruction: row i of Â is Σ_j λ̂²_j·V[i][j]·V[·][j].
func covarianceDiffFrob(model *core.Model, a *mat.Matrix) float64 {
	m := len(model.Singular)
	v := model.Components
	row := make([]float64, m)
	sum := 0.0
	for i := 0; i < m; i++ {
		for k := range row {
			row[k] = 0
		}
		for j := 0; j < m; j++ {
			w := model.Singular[j] * model.Singular[j] * v.At(i, j)
			if w == 0 {
				continue
			}
			for k := 0; k < m; k++ {
				row[k] += w * v.At(k, j)
			}
		}
		for k := 0; k < m; k++ {
			d := row[k] - a.At(i, k)
			sum += d * d
		}
	}
	return math.Sqrt(sum)
}
