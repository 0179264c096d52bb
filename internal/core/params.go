package core

import (
	"cmp"
	"fmt"

	"streampca/internal/randproj"
	"streampca/internal/sketch"
)

// DefaultEpsilon is the paper's VH ε, run wherever a deployment states none.
const DefaultEpsilon = 0.01

// Params are the protocol parameters of a deployment: the sketcher family, m,
// the window n, the family's sketch parameter (l for randproj, the basis
// budget ℓ for FD), the VH ε and the shared projection seed. The NOC states
// them, every tier below adopts them or is built with them (internal/tier
// carries them on the wire), and NewMonitor is where they become monitor
// sketch state, in process or deployed. Epsilon 0 states no ε.
type Params struct {
	Family    sketch.Family
	NumFlows  int
	WindowLen int
	SketchLen int
	Epsilon   float64
	Seed      uint64
}

// Validate checks p as input from another process: a known family, m, n
// and the sketch parameter at least 1, and ε either unstated or in (0, 1)
// (NaN fails both comparisons).
func (p Params) Validate() error {
	if p.Family != sketch.FamilyRandProj && p.Family != sketch.FamilyFD || p.NumFlows < 1 || p.WindowLen < 1 ||
		p.SketchLen < 1 || p.Epsilon != 0 && !(p.Epsilon > 0 && p.Epsilon < 1) {
		return fmt.Errorf("%w: protocol parameters %+v", ErrConfig, p)
	}
	return nil
}

// VHEpsilon is the ε variance histograms run at under p.
func (p Params) VHEpsilon() float64 { return cmp.Or(p.Epsilon, DefaultEpsilon) }

// Resolve returns p as a monitor of w flows runs it: an FD basis budget ℓ
// that p leaves 0 is sketch.DefaultEll(w).
func (p Params) Resolve(w int) Params {
	if p.Family == sketch.FamilyFD && p.SketchLen == 0 {
		p.SketchLen = sketch.DefaultEll(w)
	}
	return p
}

// Stripe assigns p's m flows round-robin to k monitors (monitor i owns flows
// i, i+k, …) and returns p as they run it: an FD budget ℓ that p leaves 0
// becomes sketch.DefaultEll of their flow count, so an uneven split, where
// monitors would disagree on ℓ, must state ℓ.
func (p Params) Stripe(k int) ([][]int, Params, error) {
	if k < 1 || k > p.NumFlows {
		return nil, p, fmt.Errorf("%w: %d monitors for %d flows", ErrConfig, k, p.NumFlows)
	}
	if p.Family == sketch.FamilyFD && p.SketchLen == 0 && p.NumFlows%k != 0 {
		return nil, p, fmt.Errorf("%w: fd ell must be set explicitly when %d monitors split %d flows unevenly",
			ErrConfig, k, p.NumFlows)
	}
	assign := make([][]int, k)
	for f := range p.NumFlows {
		assign[f%k] = append(assign[f%k], f)
	}
	return assign, p.Resolve(len(assign[0])), nil
}

// Generator returns the shared projection under p, drawn from dist (0:
// Gaussian; the sparse family at Achlioptas' s = 3), or nil for FD, which
// projects nothing. It is a pure function of p and dist, so every site
// derives the same r_tk.
func (p Params) Generator(dist randproj.Distribution) (*randproj.Generator, error) {
	if p.Family != sketch.FamilyRandProj {
		return nil, nil
	}
	gen, err := randproj.NewGenerator(randproj.Config{
		Seed: p.Seed, SketchLen: p.SketchLen, Dist: dist, SparseS: 3, WindowLen: p.WindowLen,
	})
	if err != nil {
		return nil, fmt.Errorf("generator: %w", err)
	}
	return gen, nil
}

// NewMonitor builds the sketch state of a monitor over flowIDs under p:
// variance histograms at ε over the projection Generator(dist) for randproj,
// or an FD buffer of budget ℓ (sketch.DefaultEll of the flow count when 0).
func (p Params) NewMonitor(flowIDs []int, dist randproj.Distribution) (*Monitor, error) {
	gen, err := p.Generator(dist)
	if err != nil {
		return nil, err
	}
	return NewMonitor(MonitorConfig{
		Family: p.Family, FlowIDs: flowIDs, WindowLen: p.WindowLen, Epsilon: p.Epsilon, Gen: gen, FDEll: p.SketchLen,
	})
}

// Fetch is the in-process sketch pull under p: every monitor's report,
// validated against the sketch parameter and assembled (Fetch.Assemble).
// Under randproj every flow must be covered.
func (p Params) Fetch(mons ...*Monitor) (Fetch, error) {
	reports := make([]SketchReport, len(mons))
	for i, mon := range mons {
		reports[i] = mon.Report()
		if err := reports[i].Validate(p.SketchLen); err != nil {
			return Fetch{}, err
		}
	}
	var f Fetch
	if err := f.Assemble(p.Family, p.NumFlows, reports); err != nil {
		return Fetch{}, err
	}
	for j, s := range f.Sketches {
		if s == nil {
			return Fetch{}, fmt.Errorf("%w: no monitor reported flow %d", ErrInput, j)
		}
	}
	return f, nil
}
