package pca

import (
	"errors"
	"fmt"
	"math"

	"streampca/internal/mat"
	"streampca/internal/stats"
)

// Detector tests measurement vectors against a fitted model: it computes the
// anomaly distance d(y) = ‖(I − PPᵀ)y‖ (eq. 5) and compares it with the
// Q-statistic threshold (eq. 6/7).
type Detector struct {
	model     *Model
	rank      int
	threshold float64
}

// NewDetector builds a detector from a fitted model, a normal-subspace rank
// r ∈ [0, m], and a false-alarm rate alpha ∈ (0, 1). A residual spectrum that
// admits no Jackson–Mudholkar limit (stats.ErrDegenerate) is not an error:
// the detector keeps scoring distances under a +Inf threshold, so it flags
// nothing until a refit on a healthier window replaces it. Every exact
// detector in the tree is built here, so that fallback is decided once.
func NewDetector(model *Model, rank int, alpha float64) (*Detector, error) {
	if model == nil {
		return nil, fmt.Errorf("%w: nil model", ErrInput)
	}
	m := model.NumFlows()
	if rank < 0 || rank > m {
		return nil, fmt.Errorf("%w: rank %d with %d flows", ErrRank, rank, m)
	}
	threshold, err := stats.QStatistic(model.Singular, model.WindowLen, rank, alpha)
	if errors.Is(err, stats.ErrDegenerate) {
		threshold, err = math.Inf(1), nil
	}
	if err != nil {
		return nil, fmt.Errorf("q statistic: %w", err)
	}
	return &Detector{model: model, rank: rank, threshold: threshold}, nil
}

// Threshold returns the Q-statistic threshold on the distance scale; +Inf
// when the model's residual spectrum admits none.
func (d *Detector) Threshold() float64 { return d.threshold }

// Distance returns the anomaly distance of a raw measurement vector x:
// the Euclidean norm of the residual after projecting x − x̄ out of the
// normal subspace (eq. 5 / 21).
func (d *Detector) Distance(x []float64) (float64, error) {
	y, err := d.model.Center(x)
	if err != nil {
		return 0, err
	}
	return d.residualNorm(y)
}

// residualNorm computes ‖(I − PPᵀ)y‖ via the identity
// ‖y‖² − Σ_{j≤r}(v_jᵀy)² (eq. 21), which is cheaper than materializing the
// projector and numerically safe because the subtraction is clamped at 0.
func (d *Detector) residualNorm(y []float64) (float64, error) {
	total := mat.Dot(y, y)
	var normal float64
	for j := 0; j < d.rank; j++ {
		s, err := d.model.Score(y, j)
		if err != nil {
			return 0, err
		}
		normal += s * s
	}
	rem := total - normal
	if rem < 0 {
		rem = 0
	}
	return math.Sqrt(rem), nil
}

// IsAnomalous reports whether x trips the detector, along with the distance
// it measured.
func (d *Detector) IsAnomalous(x []float64) (bool, float64, error) {
	dist, err := d.Distance(x)
	if err != nil {
		return false, 0, err
	}
	return dist > d.threshold, dist, nil
}
