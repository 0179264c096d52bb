// Package pca implements the Lakhina-style subspace method for network-wide
// traffic anomaly detection (paper §III): PCA over a sliding window of
// OD-flow measurement vectors, separation of R^m into normal and anomalous
// subspaces, the squared-prediction-error (SPE) anomaly distance, and the
// Jackson–Mudholkar Q-statistic threshold.
//
// This package is the exact (non-streaming) baseline that the sketch-based
// algorithm in internal/core approximates; the evaluation harness uses its
// detections as ground truth, exactly as the paper does.
package pca

import (
	"errors"
	"fmt"
	"math"

	"streampca/internal/mat"
)

// Errors returned by the package.
var (
	// ErrInput indicates structurally invalid input.
	ErrInput = errors.New("pca: invalid input")
	// ErrRank indicates an invalid normal-subspace rank.
	ErrRank = errors.New("pca: invalid subspace rank")
)

// Model is a fitted PCA of a window of measurement vectors.
type Model struct {
	// Components is the m×m orthonormal matrix whose column j is the j-th
	// principal component v_j (descending singular value order).
	Components *mat.Matrix
	// Singular holds the singular values η_j of the centered window
	// matrix, descending.
	Singular []float64
	// Means holds the column means removed before the decomposition.
	Means []float64
	// WindowLen is n, the number of rows the model was fitted on.
	WindowLen int
}

// NewModel turns the m×m Gram matrix of a centered window — YᵀY, whose
// eigenvalues are η², or ẐᵀẐ of a sketch standing in for it — together with
// the column means that were removed and the window length n into a Model.
// Every exact decomposition in the tree goes through here, so the clamp of
// negative rounding noise and the descending order are decided once.
func NewModel(gram *mat.Matrix, means []float64, n int) (*Model, error) {
	m := len(means)
	if n < 2 || m < 1 || gram.Rows() != m || gram.Cols() != m {
		return nil, fmt.Errorf("%w: %dx%d gram matrix for %d flows over %d rows",
			ErrInput, gram.Rows(), gram.Cols(), m, n)
	}
	eig, err := mat.SymEigen(gram)
	if err != nil {
		return nil, fmt.Errorf("eigendecomposition: %w", err)
	}
	sv := make([]float64, m)
	for j, lam := range eig.Values {
		if lam < 0 {
			lam = 0 // numerical noise on a PSD spectrum
		}
		sv[j] = math.Sqrt(lam)
	}
	return &Model{Components: eig.Vectors, Singular: sv, Means: means, WindowLen: n}, nil
}

// Fit computes the PCA of the n×m measurement matrix x (raw volumes; the
// column means are removed internally and retained in the model).
func Fit(x *mat.Matrix) (*Model, error) {
	if !x.IsFinite() {
		return nil, fmt.Errorf("%w: non-finite measurements", ErrInput)
	}
	y := x.Clone()
	means := y.CenterColumns()
	return NewModel(y.Gram(), means, x.Rows())
}

// NumFlows returns m.
func (md *Model) NumFlows() int { return len(md.Means) }

// Center subtracts the model's column means from a raw measurement vector,
// yielding y = x − x̄.
func (md *Model) Center(x []float64) ([]float64, error) {
	if len(x) != len(md.Means) {
		return nil, fmt.Errorf("%w: vector of %d for %d flows", ErrInput, len(x), len(md.Means))
	}
	y := make([]float64, len(x))
	for j, v := range x {
		y[j] = v - md.Means[j]
	}
	return y, nil
}

// Score returns the projection of the centered vector onto component j.
func (md *Model) Score(y []float64, j int) (float64, error) {
	m := md.NumFlows()
	if j < 0 || j >= m {
		return 0, fmt.Errorf("%w: component %d of %d", ErrRank, j, m)
	}
	if len(y) != m {
		return 0, fmt.Errorf("%w: vector of %d for %d flows", ErrInput, len(y), m)
	}
	var s float64
	for i := 0; i < m; i++ {
		s += md.Components.At(i, j) * y[i]
	}
	return s, nil
}
