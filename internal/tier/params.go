package tier

import (
	"cmp"
	"fmt"

	"streampca/internal/core"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
	"streampca/internal/transport"
)

// ErrParams indicates a peer that runs other protocol parameters than the
// tier it dialed, or an announcement no peer can build state from. It wraps
// ErrConfig.
var ErrParams = fmt.Errorf("%w: protocol parameters", ErrConfig)

// DefaultEpsilon is the paper's VH ε, run wherever a deployment states none.
const DefaultEpsilon = 0.01

// Params are the protocol parameters of a deployment: the sketcher family, m,
// the window n, the family's sketch parameter (l for randproj, the basis
// budget ℓ for FD), the VH ε and the shared projection seed. The NOC states
// them; every tier below adopts them from its announcement or is built with
// them, and every Hello is compared against them. Epsilon 0 states no ε.
type Params struct {
	Family    sketch.Family
	NumFlows  int
	WindowLen int
	SketchLen int
	Epsilon   float64
	Seed      uint64
}

// ParamsOf reads the parameters a Hello states.
func ParamsOf(h transport.Hello) Params {
	return Params{h.Family, h.NumFlows, h.WindowLen, h.SketchLen, h.Epsilon, h.Seed}
}

// Stated returns h stating p: the announcement, or a registration under p.
// FD carries no shared randomness, so its Hellos state seed 0.
func (p Params) Stated(h transport.Hello) transport.Hello {
	if p.Family != sketch.FamilyRandProj {
		p.Seed = 0
	}
	h.Family, h.NumFlows, h.WindowLen, h.SketchLen, h.Epsilon, h.Seed = p.Family, p.NumFlows, p.WindowLen, p.SketchLen, p.Epsilon, p.Seed
	return h
}

// Validate checks p as input from another process: a known family, m, n
// and the sketch parameter at least 1, and ε either unstated or in (0, 1)
// (NaN fails both comparisons).
func (p Params) Validate() error {
	if p.Family != sketch.FamilyRandProj && p.Family != sketch.FamilyFD || p.NumFlows < 1 || p.WindowLen < 1 ||
		p.SketchLen < 1 || p.Epsilon != 0 && !(p.Epsilon > 0 && p.Epsilon < 1) {
		return fmt.Errorf("%w: invalid %+v", ErrParams, p)
	}
	return nil
}

// agrees reports whether a Hello stating q registers under p. A field q
// leaves unstated agrees — m and ε from a peer built before they were
// stated, ε whenever p states none — and so does the seed under FD.
func (p Params) agrees(q Params) bool {
	q.NumFlows = cmp.Or(q.NumFlows, p.NumFlows)
	if q.Epsilon == 0 || p.Epsilon == 0 {
		q.Epsilon = p.Epsilon
	}
	if p.Family == sketch.FamilyFD {
		q.Seed = p.Seed
	}
	return q == p
}

// NewMonitor builds the monitor-side sketch state of flowIDs under p:
// variance histograms at ε over the seeded projection for randproj, whose
// distribution proj supplies, or an FD buffer of budget ℓ. It also returns
// the projection's generator, nil for FD.
func (p Params) NewMonitor(flowIDs []int, proj randproj.Config) (*core.Monitor, *randproj.Generator, error) {
	mc := core.MonitorConfig{Family: p.Family, FlowIDs: flowIDs, WindowLen: p.WindowLen, Epsilon: p.Epsilon, FDEll: p.SketchLen}
	if p.Family == sketch.FamilyRandProj {
		proj.Seed, proj.SketchLen, proj.WindowLen = p.Seed, p.SketchLen, cmp.Or(proj.WindowLen, p.WindowLen)
		var err error
		if mc.Gen, err = randproj.NewGenerator(proj); err != nil {
			return nil, nil, fmt.Errorf("generator: %w", err)
		}
	}
	cm, err := core.NewMonitor(mc)
	return cm, mc.Gen, err
}

// VHEpsilon is the ε variance histograms run at under p.
func (p Params) VHEpsilon() float64 { return cmp.Or(p.Epsilon, DefaultEpsilon) }
