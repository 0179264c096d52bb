package eval

import (
	"fmt"
	"math"
	"sort"

	"streampca/internal/anomography"
	"streampca/internal/core"
	"streampca/internal/mat"
	"streampca/internal/sketch"
	"streampca/internal/traffic"
)

// identifyMaxK bounds the culprits a method may name per alarm: it covers the
// widest injected scenario (a port-scan fan-out touches nR−1 = 10 flows on
// Abilene) with headroom.
const identifyMaxK = 16

// IdentifyKindScore is the per-scenario breakdown of one variant's row.
type IdentifyKindScore struct {
	// Kind names the injected scenario ("spike", "exfil", "port-scan", ...).
	Kind string
	// Scored counts alarmed injected intervals of this kind; Missed the
	// injected intervals the detector slept through or the identification
	// abstained on.
	Scored int
	Missed int
	// Precision3 and Recall average over the scored intervals.
	Precision3 float64
	Recall     float64
}

// IdentifyRow is one identification scorecard: how precisely a method names
// the injected flows when it alarms.
type IdentifyRow struct {
	// Variant names the method: "randproj", "fd" or "pcp-offline".
	Variant string
	Family  sketch.Family
	// SketchParam is the family's size knob (0 for the offline comparator).
	SketchParam int
	// Scored counts alarmed intervals with injected ground truth — the
	// intervals identification quality is judged on. Missed counts injected
	// intervals with no alarm plus alarmed ones where identification
	// abstained (nothing named, or the culprits explain under half the
	// anomalous energy); FalseAlarms alarmed intervals with no injection
	// (detection context, not an identification error).
	Scored      int
	Missed      int
	FalseAlarms int
	// Precision1/Precision3: of the top-min(k, named) identified flows, the
	// fraction truly injected, averaged over scored intervals. Recall: the
	// fraction of injected flows named, averaged likewise.
	Precision1 float64
	Precision3 float64
	Recall     float64
	// MeanExplained averages the pursuit's explained-energy fraction;
	// MeanCulprits the identified-set size (both over scored intervals).
	MeanExplained float64
	MeanCulprits  float64
	// Kinds breaks the score down per injected scenario, sorted by kind name.
	Kinds []IdentifyKindScore
}

// BuildIdentifyTrace generates the labeled attack workload: a diurnal trace
// with one event per scenario kind spread across the post-warmup region —
// a single-flow volume spike (the DDoS-from-one-source shape), a low-and-slow
// exfiltration, a port-scan fan-out, and the flash-crowd-vs-DDoS
// disambiguation pair on the same destination. Every injection carries its
// per-flow ground truth via Trace.AnomalousFlows.
func BuildIdentifyTrace(seed int64, numIntervals, perDay, warmup int, routers []string) (*traffic.Trace, error) {
	tr, err := traffic.Generate(traffic.GeneratorConfig{
		Routers:         routers,
		NumIntervals:    numIntervals,
		IntervalsPerDay: perDay,
		Seed:            seed,
	})
	if err != nil {
		return nil, err
	}
	usable := numIntervals - warmup
	if usable < 120 {
		return nil, fmt.Errorf("%w: only %d post-warmup intervals", ErrConfig, usable)
	}
	dur := perDay / 96 // ~15 min per burst event
	if dur < 3 {
		dur = 3
	}
	// Magnitudes sit in the detectable-but-not-absorbable band: large enough
	// to clear the Q-threshold against the residual noise floor, small enough
	// that one contaminated window (the lazy refresh re-pulls sketches that
	// already contain the anomalous interval) does not rotate the anomaly
	// direction into the rank-r normal subspace and blind the detector.
	// Injections scale with each flow's own baseline, so the busiest flows
	// and routers carry the scenarios.
	if len(tr.RouterNames) < 4 {
		return nil, fmt.Errorf("%w: %d routers, the scenario suite needs 4+", ErrConfig, len(tr.RouterNames))
	}
	spikeFlow, exfilFlow := busiestFlows(tr)
	psSrc, ddDest, fcDest := busiestRouters(tr)
	// Single-flow spike: one OD flow floods, the classic one-culprit alarm.
	if err := tr.InjectSpike(spikeFlow, warmup+usable/8, warmup+usable/8+dur, 0.8); err != nil {
		return nil, err
	}
	// Port-scan fan-out: one source probes every destination at once.
	psStart := warmup + usable/4
	if err := tr.InjectPortScan(psSrc, psStart, psStart+dur, 0.5); err != nil {
		return nil, err
	}
	// Flash-crowd vs DDoS: the same shape of flow set (every incoming flow
	// of one destination), flat surge vs linear ramp — identification must
	// name the destination's fan-in for both. Distinct destinations keep the
	// second event's direction out of the window the first contaminated.
	ddStart := warmup + usable*3/8
	if err := tr.InjectDDoS(ddDest, ddStart, ddStart+dur, 0.35); err != nil {
		return nil, err
	}
	fcStart := warmup + usable/2
	if err := tr.InjectFlashCrowd(fcDest, fcStart, fcStart+dur, 0.9); err != nil {
		return nil, err
	}
	// Low-and-slow exfiltration: one flow, modest surplus, long window — the
	// stealth corner. The sliding window gradually learns it, so alarms
	// concentrate at the onset; identification must catch it there. It runs
	// last: its long contaminated stretch inflates the threshold for a full
	// window after it, so nothing detectable may follow.
	exStart := warmup + usable*5/8
	if err := tr.InjectExfil(exfilFlow, exStart, exStart+usable/6, 0.4); err != nil {
		return nil, err
	}
	return tr, nil
}

// busiestFlows returns the two highest-baseline intra-router (o→o) flows for
// the spike and exfil scenarios. Injections scale with the victim flow's own
// mean, so busy flows give the best contrast against the residual noise
// floor — and self-loop flows are never part of a port-scan fan-out or a
// DDoS fan-in, keeping the single-flow scenarios' directions out of the
// window contamination the multi-flow events leave behind.
func busiestFlows(tr *traffic.Trace) (first, second int) {
	nR := len(tr.RouterNames)
	first, second = -1, -1
	var m1, m2 float64
	for r := 0; r < nR; r++ {
		j := r*nR + r
		b, err := tr.BaselineMean(j)
		if err != nil {
			continue
		}
		switch {
		case first < 0 || b > m1:
			second, m2 = first, m1
			first, m1 = j, b
		case second < 0 || b > m2:
			second, m2 = j, b
		}
	}
	return first, second
}

// busiestRouters picks the multi-flow scenario endpoints: the port-scan
// source is the router with the largest outgoing baseline mass, the DDoS
// destination is that same router (a fan-in {o→src} is disjoint from the
// scan's fan-out {src→d}, so neither event's window contamination covers the
// other's direction), and the flash crowd hits the busiest other destination.
func busiestRouters(tr *traffic.Trace) (src, ddDest, fcDest int) {
	nR := len(tr.RouterNames)
	outMass := make([]float64, nR)
	inMass := make([]float64, nR)
	for o := 0; o < nR; o++ {
		for d := 0; d < nR; d++ {
			b, err := tr.BaselineMean(o*nR + d)
			if err != nil {
				continue
			}
			outMass[o] += b
			inMass[d] += b
		}
	}
	for r := 1; r < nR; r++ {
		if outMass[r] > outMass[src] {
			src = r
		}
	}
	ddDest = src
	fcDest = -1
	for r := 0; r < nR; r++ {
		if r == src {
			continue
		}
		if fcDest < 0 || inMass[r] > inMass[fcDest] {
			fcDest = r
		}
	}
	return src, ddDest, fcDest
}

// IdentifySuite scores per-flow identification on the scenario's labeled
// trace: the online greedy pursuit once per sketcher family (randproj and fd,
// the two CI-gated families), then the offline relaxed-PCP comparator. Rows
// come back in that fixed order. fdMonitors overrides the monitor count for
// the FD variant (0 → s.Monitors): Frequent Directions needs 2ℓ < shard
// width, so narrow shards cannot hold the rank-r model plus enough residual
// spectrum for a Q-threshold — the FD scorecard typically runs wider shards
// than the randproj one.
func IdentifySuite(s Scenario, fdMonitors int) ([]IdentifyRow, error) {
	if s.Trace == nil || len(s.Trace.Injections) == 0 {
		return nil, fmt.Errorf("%w: trace carries no injected ground truth", ErrInput)
	}
	if s.Monitors < 1 {
		return nil, fmt.Errorf("%w: %d monitors", ErrConfig, s.Monitors)
	}
	out := make([]IdentifyRow, 0, len(onlineVariants)+1)
	for _, v := range onlineVariants {
		vs := s
		if v.family == sketch.FamilyFD && fdMonitors > 0 {
			vs.Monitors = fdMonitors
		}
		row, err := vs.identifyVariant(v.name, v.family)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		out = append(out, row)
	}
	row, err := s.pcpIdentifyRow()
	if err != nil {
		return nil, fmt.Errorf("pcp-offline: %w", err)
	}
	return append(out, row), nil
}

// identifyScorer accumulates per-interval identification scores.
type identifyScorer struct {
	row    IdentifyRow
	kinds  map[string]*IdentifyKindScore
	p1Sum  float64
	p3Sum  float64
	recSum float64
	exSum  float64
	nSum   float64
}

func newIdentifyScorer(name string, family sketch.Family, param int) *identifyScorer {
	return &identifyScorer{
		row:   IdentifyRow{Variant: name, Family: family, SketchParam: param},
		kinds: map[string]*IdentifyKindScore{},
	}
}

// kindsAt names the scenario kinds injected at interval i.
func kindsAt(tr *traffic.Trace, i int) []string {
	var out []string
	seen := map[string]bool{}
	for _, inj := range tr.Injections {
		if i < inj.Start || i >= inj.End {
			continue
		}
		k := inj.Kind.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func (sc *identifyScorer) kind(name string) *IdentifyKindScore {
	ks := sc.kinds[name]
	if ks == nil {
		ks = &IdentifyKindScore{Kind: name}
		sc.kinds[name] = ks
	}
	return ks
}

// miss records an injected interval the detector slept through.
func (sc *identifyScorer) miss(tr *traffic.Trace, i int) {
	sc.row.Missed++
	for _, k := range kindsAt(tr, i) {
		sc.kind(k).Missed++
	}
}

// score records one alarmed injected interval: ranked identified flows
// against the ground-truth set.
func (sc *identifyScorer) score(tr *traffic.Trace, i int, ranked []int, explained float64) {
	truth := tr.AnomalousFlows(i)
	truthSet := make(map[int]bool, len(truth))
	for _, f := range truth {
		truthSet[f] = true
	}
	p1 := precisionAt(ranked, truthSet, 1)
	p3 := precisionAt(ranked, truthSet, 3)
	rec := recallOf(ranked, truthSet)
	sc.row.Scored++
	sc.p1Sum += p1
	sc.p3Sum += p3
	sc.recSum += rec
	sc.exSum += explained
	sc.nSum += float64(len(ranked))
	for _, k := range kindsAt(tr, i) {
		ks := sc.kind(k)
		ks.Scored++
		ks.Precision3 += p3
		ks.Recall += rec
	}
}

// finish averages the sums into the row.
func (sc *identifyScorer) finish() IdentifyRow {
	if n := float64(sc.row.Scored); n > 0 {
		sc.row.Precision1 = sc.p1Sum / n
		sc.row.Precision3 = sc.p3Sum / n
		sc.row.Recall = sc.recSum / n
		sc.row.MeanExplained = sc.exSum / n
		sc.row.MeanCulprits = sc.nSum / n
	}
	for _, ks := range sc.kinds {
		if ks.Scored > 0 {
			ks.Precision3 /= float64(ks.Scored)
			ks.Recall /= float64(ks.Scored)
		}
		sc.row.Kinds = append(sc.row.Kinds, *ks)
	}
	sort.Slice(sc.row.Kinds, func(a, b int) bool { return sc.row.Kinds[a].Kind < sc.row.Kinds[b].Kind })
	return sc.row
}

// precisionAt is the fraction of the top-min(k, |ranked|) flows that are
// truly injected; 0 when nothing was named.
func precisionAt(ranked []int, truth map[int]bool, k int) float64 {
	if len(ranked) < k {
		k = len(ranked)
	}
	if k == 0 {
		return 0
	}
	hits := 0
	for _, f := range ranked[:k] {
		if truth[f] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// recallOf is the fraction of injected flows the ranked set names.
func recallOf(ranked []int, truth map[int]bool) float64 {
	if len(truth) == 0 {
		return 0
	}
	hits := 0
	for _, f := range ranked {
		if truth[f] {
			hits++
		}
	}
	return float64(hits) / float64(len(truth))
}

// identifyMinExplained is the abstention floor: an identification whose
// culprits explain less than this fraction of the anomalous energy is a
// shrug, not a naming. Such alarms come from intervals whose true direction
// a contaminated refresh already rotated into the normal subspace — the
// residual that remains points nowhere, and the pursuit's best pick is a
// low-confidence, often negative-amount artifact of the over-fit means.
// Scoring convention mirrors the PCP comparator's empty-culprit rule:
// an abstained interval counts as missed, never as a wrong identification.
const identifyMinExplained = 0.5

// identifyVariant replays the trace through one family's cluster, running
// the pursuit on every alarmed interval and scoring against the injection
// labels.
func (s Scenario) identifyVariant(name string, family sketch.Family) (IdentifyRow, error) {
	tr := s.Trace
	sc := newIdentifyScorer(name, family, s.sketchParam(family))
	_, err := s.Replay(family, func(cl *core.Cluster, st Step) error {
		if !st.Warm {
			return nil
		}
		i := st.Index
		injected := len(tr.AnomalousFlows(i)) > 0
		if !st.Decision.Anomalous {
			if injected {
				sc.miss(tr, i)
			}
			return nil
		}
		if !injected {
			sc.row.FalseAlarms++
			return nil
		}
		id, err := cl.Detector().Identify(st.Volumes, identifyMaxK)
		if err != nil {
			return err
		}
		if len(id.Flows) == 0 || id.ExplainedFrac < identifyMinExplained {
			sc.miss(tr, i)
			return nil
		}
		ranked := make([]int, len(id.Flows))
		for j, f := range id.Flows {
			ranked[j] = f.Flow
		}
		sc.score(tr, i, ranked, id.ExplainedFrac)
		return nil
	})
	if err != nil {
		return sc.row, err
	}
	return sc.finish(), nil
}

// pcpRowRelFloor gates PCP culprit extraction: entries of S below this
// fraction of the row's largest magnitude are residual noise, not culprits.
const pcpRowRelFloor = 0.25

// pcpIdentifyRow decomposes the post-warmup traffic matrix (from the window
// boundary on) with relaxed PCP and scores RowCulprits of the sparse part
// against the same ground truth. The comparator sees the whole matrix at
// once (offline, no sliding window, no sketch) — the quality ceiling the
// streaming pursuit is judged against.
func (s Scenario) pcpIdentifyRow() (IdentifyRow, error) {
	sc := newIdentifyScorer("pcp-offline", sketch.Family(0), 0)
	tr, from := s.Trace, s.WindowLen
	if from < 0 || from >= tr.NumIntervals() {
		return sc.row, fmt.Errorf("%w: window %d of %d intervals", ErrConfig, from, tr.NumIntervals())
	}
	volumes := tr.Volumes
	n, m := volumes.Rows()-from, volumes.Cols()
	d := mat.NewMatrix(n, m)
	for r := 0; r < n; r++ {
		copy(d.RowView(r), volumes.RowView(from+r))
	}
	res, err := anomography.PCP(d, anomography.PCPConfig{})
	if err != nil {
		return sc.row, err
	}
	for i := from; i < volumes.Rows(); i++ {
		if len(tr.AnomalousFlows(i)) == 0 {
			continue
		}
		r := i - from
		var rowMax float64
		for _, v := range res.S.RowView(r) {
			rowMax = math.Max(rowMax, math.Abs(v))
		}
		ranked := anomography.RowCulprits(res.S, r, identifyMaxK, pcpRowRelFloor*rowMax)
		if len(ranked) == 0 {
			sc.miss(tr, i)
			continue
		}
		sc.score(tr, i, ranked, 1-res.RelResidual)
	}
	return sc.finish(), nil
}
