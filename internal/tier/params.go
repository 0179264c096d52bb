package tier

import (
	"cmp"
	"fmt"

	"streampca/internal/core"
	"streampca/internal/sketch"
	"streampca/internal/transport"
)

// ErrParams indicates a peer that runs other protocol parameters than the
// tier it dialed, or an announcement no peer can build state from. It wraps
// ErrConfig.
var ErrParams = fmt.Errorf("%w: protocol parameters", ErrConfig)

// ParamsOf reads the protocol parameters a Hello states.
func ParamsOf(h transport.Hello) core.Params {
	return core.Params{Family: h.Family, NumFlows: h.NumFlows, WindowLen: h.WindowLen, SketchLen: h.SketchLen, Epsilon: h.Epsilon, Seed: h.Seed}
}

// Stated returns h stating p: the announcement, or a registration under p.
// FD carries no shared randomness, so its Hellos state seed 0.
func Stated(p core.Params, h transport.Hello) transport.Hello {
	if p.Family != sketch.FamilyRandProj {
		p.Seed = 0
	}
	h.Family, h.NumFlows, h.WindowLen, h.SketchLen, h.Epsilon, h.Seed = p.Family, p.NumFlows, p.WindowLen, p.SketchLen, p.Epsilon, p.Seed
	return h
}

// agrees reports whether a Hello stating q registers under p. A field q
// leaves unstated agrees — m and ε from a peer built before they were
// stated, ε whenever p states none — and so does the seed under FD.
func agrees(p, q core.Params) bool {
	q.NumFlows = cmp.Or(q.NumFlows, p.NumFlows)
	if q.Epsilon == 0 || p.Epsilon == 0 {
		q.Epsilon = p.Epsilon
	}
	if p.Family == sketch.FamilyFD {
		q.Seed = p.Seed
	}
	return q == p
}
