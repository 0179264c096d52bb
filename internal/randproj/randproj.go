// Package randproj implements the random-projection machinery of the
// sketch-based streaming PCA algorithm (paper §IV-B, §V-B).
//
// A sketch column is z_j = (1/√l)·Rᵀ·y_j where R is an n×l random matrix.
// Its entries r_{tk} are tug-of-war signs, ±1 with probability 1/2 each (Alon,
// Matias & Szegedy; Achlioptas): the paper's §V-B finds the projection
// families give the same result, and a sign row is one hash per 64 entries,
// exact on every GOARCH, and a product r·y that rounds nothing.
//
// Distributed operation requires every local monitor and the NOC to see the
// *same* r_{tk} without exchanging them. Generator therefore derives each
// row deterministically from (seed, interval t) with a counter-based
// SplitMix64 hash — any party holding the shared seed reproduces the full
// matrix on demand.
package randproj

import (
	"errors"
	"fmt"
	"math"
)

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
	// WindowLen is not read. It stays because the benchmark (bench/) sets it.
	WindowLen int
}

// Generator deterministically produces the shared random signs r_{tk}.
//
// A Generator is immutable after NewGenerator and the derivation is pure, so
// it is safe for concurrent use.
type Generator struct {
	seed      uint64
	sketchLen int
	// words is ⌈l/64⌉, the sign words of one row.
	words int
}

// NewGenerator validates cfg and returns a Generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.SketchLen <= 0 {
		return nil, fmt.Errorf("%w: sketch length %d", ErrConfig, cfg.SketchLen)
	}
	return &Generator{seed: cfg.Seed, sketchLen: cfg.SketchLen, words: (cfg.SketchLen + 63) / 64}, nil
}

// SketchLen returns l, the number of projection directions.
func (g *Generator) SketchLen() int { return g.sketchLen }

// word returns sign word b of row t: bit k%64 of word k/64 is r_{tk}, 0 for
// +1 and 1 for −1.
func (g *Generator) word(t int64, b int) uint64 {
	return splitmix64(g.seed ^ mix(uint64(t), uint64(b)|1<<63))
}

// signsInto fills dst (length ⌈l/64⌉) with the sign words of row t.
func (g *Generator) signsInto(t int64, dst []uint64) {
	for b := range dst {
		dst[b] = g.word(t, b)
	}
}

// At returns r_{tk} for interval index t and direction k ∈ [0, l).
// The value depends only on (seed, t, k), so any party reproduces it.
func (g *Generator) At(t int64, k int) float64 {
	return sign(g.word(t, k/64) >> (k % 64))
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
	for b := 0; b < g.words; b++ {
		expand(dst[b*64:min(len(dst), (b+1)*64)], g.word(t, b))
	}
}

// expand writes the signs of word w, lowest bit first, into dst (≤ 64).
func expand(dst []float64, w uint64) {
	for k := range dst {
		dst[k] = sign(w >> k)
	}
}

// sign maps the low bit of u to +1 (0) or −1 (1): the bit is the float's
// sign bit.
func sign(u uint64) float64 {
	return math.Float64frombits(0x3ff0000000000000 | (u&1)<<63)
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
