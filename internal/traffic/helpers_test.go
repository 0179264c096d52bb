package traffic

import (
	"fmt"
	"math"

	"streampca/internal/flow"
	"streampca/internal/mat"
)

// symEigenForTest returns the eigenvalues of a symmetric matrix, keeping the
// traffic tests decoupled from the eigensolver's full API.
func symEigenForTest(g *mat.Matrix) ([]float64, error) {
	eig, err := mat.SymEigen(g)
	if err != nil {
		return nil, err
	}
	return eig.Values, nil
}

// newAggForTest builds a plain aggregator without router names.
func newAggForTest(tbl *flow.Table, routers int) (*flow.Aggregator, error) {
	return flow.NewAggregator(tbl, routers, nil)
}

// estimateHurst estimates the Hurst parameter of data with the aggregated-
// variance method: for block sizes b the variance of block means scales as
// b^{2H−2}; H is recovered by least-squares on the log-log plot.
func estimateHurst(data []float64) (float64, error) {
	if len(data) < 64 {
		return 0, fmt.Errorf("%w: need at least 64 samples, got %d", ErrLRDConfig, len(data))
	}
	var xs, ys []float64
	for b := 1; b <= len(data)/8; b *= 2 {
		nBlocks := len(data) / b
		means := make([]float64, nBlocks)
		for i := 0; i < nBlocks; i++ {
			var s float64
			for j := i * b; j < (i+1)*b; j++ {
				s += data[j]
			}
			means[i] = s / float64(b)
		}
		// Variance of block means.
		var mean float64
		for _, v := range means {
			mean += v
		}
		mean /= float64(nBlocks)
		var variance float64
		for _, v := range means {
			d := v - mean
			variance += d * d
		}
		variance /= float64(nBlocks)
		if variance <= 0 {
			continue
		}
		xs = append(xs, math.Log(float64(b)))
		ys = append(ys, math.Log(variance))
	}
	if len(xs) < 3 {
		return 0, fmt.Errorf("%w: degenerate series", ErrLRDConfig)
	}
	// Least-squares slope.
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	fn := float64(len(xs))
	slope := (fn*sxy - sx*sy) / (fn*sxx - sx*sx)
	return slope/2 + 1, nil
}
