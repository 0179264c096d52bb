// Package randproj implements the random-projection machinery of the
// sketch-based streaming PCA algorithm (paper §IV-B, §V-B).
//
// A sketch column is z_j = (1/√l)·Rᵀ·y_j where R is an n×l random matrix.
// The paper supports four distributions for the entries r_{tk}:
//
//   - standard normal (the classical Johnson–Lindenstrauss projection);
//   - tug-of-war ±1 with probability 1/2 each (Alon, Gibbons, Matias, Szegedy);
//   - Achlioptas sparse: {−1, 0, +1} with probabilities {1/2s, 1−1/s, 1/2s};
//   - Li very sparse: the Achlioptas family with s = √n.
//
// Distributed operation requires every local monitor and the NOC to see the
// *same* r_{tk} without exchanging them. Generator therefore derives each
// entry deterministically from (seed, interval t, sketch index k) with a
// counter-based SplitMix64 hash — any party holding the shared seed
// reproduces the full matrix on demand in O(1) per entry.
package randproj

import (
	"errors"
	"fmt"
	"math"

	"streampca/internal/stats"
)

// Distribution selects the random-projection family.
type Distribution int

const (
	// Gaussian draws r from the standard normal distribution.
	Gaussian Distribution = iota + 1
	// TugOfWar draws r uniformly from {−1, +1} (Alon et al.).
	TugOfWar
	// Sparse draws r from {−1, 0, +1} with probabilities
	// {1/2s, 1−1/s, 1/2s} for a configured integer s ≥ 1 (Achlioptas).
	Sparse
	// VerySparse is the Sparse family with s = √n chosen from the window
	// length (Li, Hastie, Church).
	VerySparse
)

// String implements fmt.Stringer for diagnostics and logs.
func (d Distribution) String() string {
	switch d {
	case Gaussian:
		return "gaussian"
	case TugOfWar:
		return "tug-of-war"
	case Sparse:
		return "sparse"
	case VerySparse:
		return "very-sparse"
	default:
		return "unknown"
	}
}

// Errors returned by the package.
var (
	// ErrConfig indicates an invalid generator configuration.
	ErrConfig = errors.New("randproj: invalid configuration")
)

// Config parameterizes a Generator.
type Config struct {
	// Seed is the shared seed; all monitors and the NOC must agree on it.
	Seed uint64
	// SketchLen is l, the number of projection directions.
	SketchLen int
	// Dist selects the distribution family. Zero value defaults to Gaussian.
	Dist Distribution
	// SparseS is the s parameter of the Sparse family (ignored otherwise);
	// must be ≥ 1. Achlioptas' classic choices are s = 1 and s = 3.
	SparseS int
	// WindowLen is n, used only by VerySparse to set s = √n.
	WindowLen int
}

// Generator deterministically produces the shared random numbers r_{tk}.
//
// A Generator is immutable after NewGenerator and the derivation is pure, so
// it is safe for concurrent use.
type Generator struct {
	seed      uint64
	sketchLen int
	dist      Distribution
	// sparseInv is 1/s for the sparse families; 0 for dense families.
	sparseInv float64
	// sparseScale is √s, the variance-restoring scale of sparse entries.
	sparseScale float64
}

// NewGenerator validates cfg and returns a Generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.SketchLen <= 0 {
		return nil, fmt.Errorf("%w: sketch length %d", ErrConfig, cfg.SketchLen)
	}
	dist := cfg.Dist
	if dist == 0 {
		dist = Gaussian
	}
	g := &Generator{seed: cfg.Seed, sketchLen: cfg.SketchLen, dist: dist}
	switch dist {
	case Gaussian, TugOfWar:
		// No extra parameters.
	case Sparse:
		if cfg.SparseS < 1 {
			return nil, fmt.Errorf("%w: sparse s = %d, want >= 1", ErrConfig, cfg.SparseS)
		}
		g.sparseInv = 1 / float64(cfg.SparseS)
		g.sparseScale = math.Sqrt(float64(cfg.SparseS))
	case VerySparse:
		if cfg.WindowLen < 1 {
			return nil, fmt.Errorf("%w: very-sparse requires window length, got %d", ErrConfig, cfg.WindowLen)
		}
		s := math.Max(1, math.Sqrt(float64(cfg.WindowLen)))
		g.sparseInv = 1 / s
		g.sparseScale = math.Sqrt(s)
	default:
		return nil, fmt.Errorf("%w: unknown distribution %d", ErrConfig, int(dist))
	}
	return g, nil
}

// SketchLen returns l, the number of projection directions.
func (g *Generator) SketchLen() int { return g.sketchLen }

// Seed returns the shared seed.
func (g *Generator) Seed() uint64 { return g.seed }

// At returns r_{tk} for interval index t and direction k ∈ [0, l).
// The value depends only on (seed, t, k), so any party reproduces it.
func (g *Generator) At(t int64, k int) float64 {
	u := splitmix64(g.seed ^ mix(uint64(t), uint64(k)))
	switch g.dist {
	case Gaussian:
		return gaussianFromBits(u)
	case TugOfWar:
		if u&1 == 0 {
			return 1
		}
		return -1
	default: // Sparse, VerySparse
		// First uniform decides zero vs nonzero; a second decides sign.
		u01 := uniform01(u)
		if u01 >= g.sparseInv {
			return 0
		}
		if splitmix64(u)&1 == 0 {
			return g.sparseScale
		}
		return -g.sparseScale
	}
}

// Row returns the l-vector (r_{t,0}, …, r_{t,l−1}) for interval t. The
// returned slice is a fresh copy the caller owns.
func (g *Generator) Row(t int64) []float64 {
	out := make([]float64, g.sketchLen)
	g.RowInto(t, out)
	return out
}

// RowInto fills dst (which must have length ≥ l) with the row for interval t
// without allocating.
func (g *Generator) RowInto(t int64, dst []float64) {
	dst = dst[:g.sketchLen]
	for k := range dst {
		dst[k] = g.At(t, k)
	}
}

// mix combines two 64-bit words into one with good avalanche behaviour.
func mix(a, b uint64) uint64 {
	h := a*0x9e3779b97f4a7c15 + b
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	return h
}

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mixing
// function usable as a counter-based PRNG.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// uniform01 maps 64 random bits to a uniform in [0, 1).
func uniform01(u uint64) float64 {
	return float64(u>>11) / (1 << 53)
}

// gaussianFromBits converts 64 random bits into a standard normal deviate by
// inverting the normal CDF on a uniform sample. Deterministic and
// branch-light: exactly one hash per deviate.
func gaussianFromBits(u uint64) float64 {
	p := uniform01(u)
	// Clamp away from the endpoints so the quantile stays finite.
	if p < 1e-17 {
		p = 1e-17
	}
	q, err := stats.NormalQuantile(p)
	if err != nil {
		// Unreachable given the clamp; keep the generator total anyway.
		return 0
	}
	return q
}
