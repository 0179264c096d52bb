// Package streampca is a sketch-based streaming PCA library for
// network-wide traffic anomaly detection, reproducing Liu, Zhang & Guan,
// "Sketch-based Streaming PCA Algorithm for Network-wide Traffic Anomaly
// Detection" (ICDCS 2010).
//
// # Overview
//
// The classical subspace method (Lakhina et al.) fits PCA to a sliding
// window of n traffic measurement vectors over m aggregated flows and flags
// a measurement whose residual outside the top-r principal subspace exceeds
// a Q-statistic threshold. That costs O(n·m) space and O(n·m²) time per
// retraining. This library replaces the raw window with per-flow variance
// histograms carrying random-projection sums, so local monitors run in
// O(w·log n) time and O(w·log²n) space, and the NOC retrains from an l×m
// sketch matrix (l = O(log n)) in O(m²·log n) time — with provable error
// bounds on the recovered subspace and anomaly distances.
//
// # Quick start
//
// The simplest entry point is a Cluster, which wires local monitors and the
// NOC detector in-process:
//
//	cl, err := streampca.NewCluster(streampca.ClusterConfig{
//		NumFlows:    81,
//		NumMonitors: 9,
//		WindowLen:   4032, // two weeks of 5-minute intervals
//		Epsilon:     0.01,
//		Alpha:       0.01,
//		Sketch:      streampca.SketchConfig{Seed: 42, SketchLen: 200},
//		FixedRank:   6,
//	})
//	...
//	decision, err := cl.Step(interval, volumes) // one call per interval
//	if decision.Anomalous { ... }
//
// For a real deployment, run one monitor service per measurement site and a
// NOC service; see the examples/distributed program and the
// internal/monitor and internal/noc packages.
//
// The exact (Lakhina) baseline, the synthetic Abilene traffic substrate and
// the experiment harness that regenerates the paper's figures live in
// internal/pca, internal/traffic and internal/eval; the cmd/abilene-eval
// binary drives them.
package streampca

import (
	"streampca/internal/core"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
)

// Re-exported core types: these aliases are the library's public API; the
// implementation lives in internal packages.
type (
	// Monitor is the local-monitor sketch state: one variance histogram
	// with random-projection sums per assigned flow.
	Monitor = core.Monitor
	// MonitorConfig configures a Monitor.
	MonitorConfig = core.MonitorConfig
	// SketchReport carries a monitor's sketches to the NOC.
	SketchReport = core.SketchReport
	// Detector is the NOC-side sketch-PCA detector with the lazy
	// model-refresh protocol.
	Detector = core.Detector
	// DetectorConfig configures a Detector.
	DetectorConfig = core.DetectorConfig
	// Model is a fitted sketch-PCA model.
	Model = core.Model
	// Decision is the outcome of observing one measurement vector.
	Decision = core.Decision
	// FetchFunc pulls fresh sketches from local monitors.
	FetchFunc = core.FetchFunc
	// RankMode selects how the normal-subspace size is chosen.
	RankMode = core.RankMode
	// SketchFamily selects the streaming-summary implementation monitors
	// run (random projection or Frequent Directions).
	SketchFamily = sketch.Family
	// Cluster wires monitors and a detector in-process.
	Cluster = core.Cluster
	// ClusterConfig configures a Cluster.
	ClusterConfig = core.ClusterConfig

	// SketchConfig configures the shared random projection (seed,
	// sketch length l, distribution family).
	SketchConfig = randproj.Config
	// SketchDistribution selects the projection family.
	SketchDistribution = randproj.Distribution
	// SketchGenerator deterministically produces the shared random
	// numbers r_{tk}.
	SketchGenerator = randproj.Generator
)

// Rank-selection modes (paper §IV-D).
const (
	// RankFixed uses a configured fixed r.
	RankFixed = core.RankFixed
	// RankThreeSigma applies the 3σ-heuristic to the sketch projections.
	RankThreeSigma = core.RankThreeSigma
	// RankEnergy retains a configured fraction of spectral energy.
	RankEnergy = core.RankEnergy
)

// Sketcher families (-sketcher flag spellings via ParseSketchFamily).
const (
	// FamilyRandProj is the paper's random projection over per-flow
	// variance histograms — sliding-window semantics, probabilistic
	// (Theorem 2) error bound. The zero value.
	FamilyRandProj = sketch.FamilyRandProj
	// FamilyFD is Frequent Directions — full-prefix semantics,
	// deterministic ‖AᵀA − BᵀB‖₂ ≤ Δ bound in O(ℓ·w) space.
	FamilyFD = sketch.FamilyFD
)

// Random-projection families (paper §V-B).
const (
	// Gaussian draws projections from the standard normal distribution.
	Gaussian = randproj.Gaussian
	// TugOfWar draws ±1 coins (Alon et al.).
	TugOfWar = randproj.TugOfWar
	// Sparse is Achlioptas' {−1,0,+1} family with parameter s.
	Sparse = randproj.Sparse
	// VerySparse is Li's s=√n variant.
	VerySparse = randproj.VerySparse
)

// Sentinel errors re-exported for matching with errors.Is.
var (
	// ErrConfig indicates an invalid configuration.
	ErrConfig = core.ErrConfig
	// ErrInput indicates structurally invalid runtime input.
	ErrInput = core.ErrInput
	// ErrNoModel indicates a detector query before any model was built.
	ErrNoModel = core.ErrNoModel
)

// NewMonitor builds a local-monitor sketch state.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	return core.NewMonitor(cfg)
}

// NewDetector builds a NOC-side sketch-PCA detector.
func NewDetector(cfg DetectorConfig) (*Detector, error) {
	return core.NewDetector(cfg)
}

// NewCluster builds an in-process monitors+NOC assembly.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	return core.NewCluster(cfg)
}

// NewSketchGenerator builds the shared deterministic random-projection
// generator all monitors and the NOC must agree on.
func NewSketchGenerator(cfg SketchConfig) (*SketchGenerator, error) {
	return randproj.NewGenerator(cfg)
}

// ParseSketchFamily maps a -sketcher flag spelling ("randproj", "fd", or
// empty for the default) to a SketchFamily.
func ParseSketchFamily(s string) (SketchFamily, error) {
	return sketch.ParseFamily(s)
}
