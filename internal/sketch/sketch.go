// Package sketch defines the Sketcher abstraction behind the monitor's
// streaming summaries and provides the two families the system ships:
//
//   - RandProj — the paper's random-projection sketch Ẑ = (1/√l)RᵀY carried
//     by per-flow variance histograms (§IV-A/B). Sketches are linear in the
//     data, so per-flow columns from disjoint flow shards assemble exactly at
//     the NOC; the error bound is probabilistic (Lemma 5/6, Theorem 2).
//   - FD — a Frequent Directions sketch (Liberty; Sharan/Gopalan/Wieder in
//     PAPERS.md): a 2ℓ-row buffer over the centered measurement rows,
//     periodically shrunk by the smallest retained squared singular value.
//     Space is O(ℓ·w) for ℓ = O(√m) and the error bound is deterministic:
//     ‖AᵀA − BᵀB‖₂ ≤ Δ ≤ ‖A‖²_F/ℓ, where Δ is the accumulated shrinkage
//     the sketch tracks explicitly.
//
// A Snapshot is the wire form of either family; internal/core aliases it as
// SketchReport, so transport payloads and the NOC fetch path are generic
// over the family. Family selection is threaded from the daemons' -sketcher
// flag through MonitorConfig down to New.
package sketch

import (
	"errors"
	"fmt"
	"math"

	"streampca/internal/randproj"
)

// Sentinel errors. They intentionally carry a package-neutral prefix:
// internal/core re-exports them as its own ErrConfig/ErrInput so existing
// errors.Is checks hold across the package boundary.
var (
	// ErrConfig indicates an invalid configuration.
	ErrConfig = errors.New("streampca: invalid configuration")
	// ErrInput indicates structurally invalid runtime input.
	ErrInput = errors.New("streampca: invalid input")
)

// ErrFDBudget reports an FD basis budget outside the useful range 2ℓ < w:
// with 2ℓ ≥ w the 2ℓ×w row buffer costs at least as much memory as the exact
// w×w Gram matrix it approximates, and once ℓ ≥ w every shrink is lossless so
// the sketch silently degenerates into a full-rank copy. NewFD rejects such
// configurations instead of accepting them (the trap shipped until PR 9).
// Wraps ErrConfig, so errors.Is(err, ErrConfig) holds too.
var ErrFDBudget = fmt.Errorf("%w: fd basis budget needs 2ℓ < w", ErrConfig)

// Family identifies a sketcher implementation. The zero value is the
// random-projection family so that wire payloads and configurations written
// before the field existed keep their meaning.
type Family int

const (
	// FamilyRandProj is the paper's random-projection sketch.
	FamilyRandProj Family = iota
	// FamilyFD is the Frequent Directions sketch.
	FamilyFD
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamilyRandProj:
		return "randproj"
	case FamilyFD:
		return "fd"
	default:
		return fmt.Sprintf("family(%d)", int(f))
	}
}

// ParseFamily maps the -sketcher flag spelling to a Family.
func ParseFamily(s string) (Family, error) {
	switch s {
	case "", "randproj":
		return FamilyRandProj, nil
	case "fd":
		return FamilyFD, nil
	default:
		return 0, fmt.Errorf("%w: unknown sketcher family %q (want randproj or fd)", ErrConfig, s)
	}
}

// Sketcher is the streaming summary a local monitor maintains per assigned
// flow set. Implementations are not safe for concurrent use; callers
// (internal/monitor, internal/noc) serialize.
type Sketcher interface {
	// Family identifies the implementation.
	Family() Family
	// FlowIDs returns a copy of the assigned global flow indices.
	FlowIDs() []int
	// NumFlows returns w, the number of assigned flows.
	NumFlows() int
	// Now returns the interval of the most recent update.
	Now() int64
	// Update ingests the volumes of interval t; volumes[i] belongs to
	// FlowIDs()[i]. Intervals must be strictly increasing.
	Update(t int64, volumes []float64) error
	// Snapshot extracts the current sketch state in wire form, and
	// SnapshotInto the same into dst, reusing its slices' capacity.
	Snapshot() Snapshot
	SnapshotInto(dst *Snapshot)
	// StateSize returns the retained-state cell count for gauges: total
	// variance-histogram buckets for RandProj, live buffer rows for FD.
	StateSize() int
}

// Config parameterizes New.
type Config struct {
	// Family selects the implementation; the zero value is FamilyRandProj.
	Family Family
	// FlowIDs lists the global flow indices this sketcher is responsible
	// for. Required, non-empty, unique, non-negative.
	FlowIDs []int
	// WindowLen is n, the sliding-window length in intervals (RandProj; FD
	// summarizes the full stream prefix and ignores it).
	WindowLen int
	// Epsilon is the VH approximation parameter ε ∈ (0, 1) (RandProj only).
	Epsilon float64
	// Gen is the shared projection generator (RandProj only; required so
	// sketches from different monitors combine at the NOC).
	Gen *randproj.Generator
	// Ell is the FD basis budget ℓ ≥ 1 (FD only); see DefaultEll.
	Ell int
}

// DefaultEll is the FD basis budget used when none is configured:
// ℓ = 2·⌈√m⌉ — the O(√m) working point the Sharan/Gopalan/Wieder analysis
// recommends, doubled for slack against shrink-induced bias — clamped to
// MaxEll so the default always satisfies the 2ℓ < w compression bound NewFD
// enforces (see ErrFDBudget).
func DefaultEll(numFlows int) int {
	if numFlows < 1 {
		return 2
	}
	ell := 2 * int(math.Ceil(math.Sqrt(float64(numFlows))))
	if ell < 2 {
		ell = 2
	}
	if max := MaxEll(numFlows); ell > max {
		ell = max
	}
	return ell
}

// MaxEll returns the largest FD basis budget satisfying 2ℓ < w for a flow set
// of the given width, never below 1. For w ≤ 2 no budget satisfies the bound
// and NewFD rejects the family outright; MaxEll still returns 1 so callers
// can report the violation through NewFD's typed error.
func MaxEll(numFlows int) int {
	max := (numFlows - 1) / 2
	if max < 1 {
		max = 1
	}
	return max
}

// validateFlowIDs enforces the shared flow-set rules.
func validateFlowIDs(flowIDs []int) error {
	if len(flowIDs) == 0 {
		return fmt.Errorf("%w: no flows assigned", ErrConfig)
	}
	seen := make(map[int]struct{}, len(flowIDs))
	for _, id := range flowIDs {
		if id < 0 {
			return fmt.Errorf("%w: negative flow id %d", ErrConfig, id)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("%w: duplicate flow id %d", ErrConfig, id)
		}
		seen[id] = struct{}{}
	}
	return nil
}

// New builds the configured sketcher family.
func New(cfg Config) (Sketcher, error) {
	switch cfg.Family {
	case FamilyRandProj:
		return NewRandProj(cfg)
	case FamilyFD:
		return NewFD(cfg)
	default:
		return nil, fmt.Errorf("%w: unknown sketcher family %d", ErrConfig, int(cfg.Family))
	}
}
