package traffic

import (
	"fmt"
	"sort"
)

// Attack scenario kinds beyond the paper's evaluation set. Each injector
// records per-flow ground truth in its Injection, so identification quality
// (precision@k / recall) can be scored, not just detection.
const (
	// PortScan is a reconnaissance fan-out: one source router probes every
	// other destination simultaneously, a thin slice of extra volume on
	// each outgoing OD flow.
	PortScan AnomalyKind = iota + FlashCrowd + 1
	// Exfil is a low-and-slow exfiltration: one OD flow carries a small
	// sustained surplus over a long window — high-stealth, the opposite
	// corner of the profile space from Spike.
	Exfil
	// DDoS is a distributed flood: every source router sends a flat surge
	// into one destination at once. Same flow set as FlashCrowd on that
	// destination, but flat instead of ramped — the disambiguation pair.
	DDoS
)

// attackKindString extends AnomalyKind.String for the attack kinds.
func attackKindString(k AnomalyKind) (string, bool) {
	switch k {
	case PortScan:
		return "port-scan", true
	case Exfil:
		return "exfil", true
	case DDoS:
		return "ddos", true
	}
	return "", false
}

// InjectPortScan adds a port-scan fan-out: source router srcIdx gains
// magnitude×baseline extra volume on every outgoing OD flow (src→d for all
// d ≠ src) over [start, end).
func (tr *Trace) InjectPortScan(srcIdx, start, end int, magnitude float64) error {
	nR := len(tr.RouterNames)
	if srcIdx < 0 || srcIdx >= nR {
		return fmt.Errorf("%w: source router %d of %d", ErrInject, srcIdx, nR)
	}
	flows := make([]int, 0, nR-1)
	for d := 0; d < nR; d++ {
		if d == srcIdx {
			continue
		}
		flows = append(flows, srcIdx*nR+d)
	}
	return tr.inject(PortScan, flows, start, end, magnitude)
}

// InjectExfil adds a low-and-slow exfiltration: flowID carries
// magnitude×baseline extra volume sustained over [start, end). Use a small
// magnitude and a long window; the point of the scenario is an anomaly
// that hides under the diurnal swing of any single interval.
func (tr *Trace) InjectExfil(flowID, start, end int, magnitude float64) error {
	return tr.inject(Exfil, []int{flowID}, start, end, magnitude)
}

// InjectDDoS adds a distributed flood into destination router destIdx:
// every OD flow o→dest (o ≠ dest) gains a flat magnitude×baseline surge
// over [start, end). Contrast with InjectFlashCrowd, which ramps the same
// flow set linearly — the flash-crowd-vs-DDoS disambiguation scenario.
func (tr *Trace) InjectDDoS(destIdx, start, end int, magnitude float64) error {
	nR := len(tr.RouterNames)
	if destIdx < 0 || destIdx >= nR {
		return fmt.Errorf("%w: destination router %d of %d", ErrInject, destIdx, nR)
	}
	flows := make([]int, 0, nR-1)
	for o := 0; o < nR; o++ {
		if o == destIdx {
			continue
		}
		flows = append(flows, o*nR+destIdx)
	}
	return tr.inject(DDoS, flows, start, end, magnitude)
}

// AnomalousFlows returns the sorted union of flows injected at interval i —
// the per-interval identification ground truth. Empty for clean intervals.
func (tr *Trace) AnomalousFlows(i int) []int {
	set := map[int]struct{}{}
	for _, inj := range tr.Injections {
		if i < inj.Start || i >= inj.End {
			continue
		}
		for _, f := range inj.Flows {
			set[f] = struct{}{}
		}
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]int, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}
