package traffic

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrLRDConfig indicates invalid long-range-dependence parameters.
var ErrLRDConfig = errors.New("traffic: invalid LRD configuration")

// MultiScaleNoise approximates long-range-dependent noise as a weighted sum
// of AR(1) (Ornstein–Uhlenbeck-like) components with geometrically spread
// time constants. The superposition reproduces slowly decaying correlations
// over the covered range of scales at O(components) per sample, making it
// suitable for month-long trace generation.
type MultiScaleNoise struct {
	state   []float64
	phi     []float64
	sigma   []float64
	weights []float64
	rng     *rand.Rand
}

// NewMultiScaleNoise builds a noise source with the given number of
// components; time constants are 4^c intervals for component c. The output
// has approximately unit variance. rng must not be nil.
func NewMultiScaleNoise(components int, rng *rand.Rand) (*MultiScaleNoise, error) {
	if components < 1 {
		return nil, fmt.Errorf("%w: %d components", ErrLRDConfig, components)
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: nil rng", ErrLRDConfig)
	}
	m := &MultiScaleNoise{
		state:   make([]float64, components),
		phi:     make([]float64, components),
		sigma:   make([]float64, components),
		weights: make([]float64, components),
		rng:     rng,
	}
	var wsum float64
	for c := 0; c < components; c++ {
		tau := math.Pow(4, float64(c))
		m.phi[c] = math.Exp(-1 / tau)
		// Innovation variance giving each component unit variance.
		m.sigma[c] = math.Sqrt(1 - m.phi[c]*m.phi[c])
		// Slowly decaying weights mimic the 1/f spectral profile.
		m.weights[c] = math.Pow(0.75, float64(c))
		wsum += m.weights[c] * m.weights[c]
		// Start at stationarity.
		m.state[c] = rng.NormFloat64()
	}
	norm := 1 / math.Sqrt(wsum)
	for c := range m.weights {
		m.weights[c] *= norm
	}
	return m, nil
}

// Step advances the process one interval and returns the next sample.
func (m *MultiScaleNoise) Step() float64 {
	var out float64
	for c := range m.state {
		m.state[c] = m.phi[c]*m.state[c] + m.sigma[c]*m.rng.NormFloat64()
		out += m.weights[c] * m.state[c]
	}
	return out
}
