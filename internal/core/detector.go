package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"streampca/internal/mat"
	"streampca/internal/sketch"
	"streampca/internal/stats"
)

// RankMode selects how the NOC chooses the normal-subspace size r.
type RankMode int

const (
	// RankFixed uses the configured FixedRank (the paper's evaluation
	// sweeps r = 1…10 this way).
	RankFixed RankMode = iota + 1
	// RankThreeSigma applies the 3σ-heuristic of §IV-D to the sketch
	// matrix's projections.
	RankThreeSigma
	// RankEnergy picks the smallest r retaining EnergyFrac of Σλ̂².
	RankEnergy
)

// String implements fmt.Stringer.
func (m RankMode) String() string {
	switch m {
	case RankFixed:
		return "fixed"
	case RankThreeSigma:
		return "3sigma"
	case RankEnergy:
		return "energy"
	default:
		return "unknown"
	}
}

// DetectorConfig parameterizes the NOC-side detector.
type DetectorConfig struct {
	// NumFlows is m, the network-wide number of aggregated flows.
	NumFlows int
	// WindowLen is n, used in the threshold's variance normalization.
	WindowLen int
	// SketchLen is the family's sketch parameter; every monitor must use
	// the same value. For the randproj family it is l, the sketch length;
	// for the FD family it is ℓ, the basis budget (the same single value
	// transport.Hello carries).
	SketchLen int
	// Alpha is the false-alarm rate for the δ threshold.
	Alpha float64
	// Mode selects rank determination; defaults to RankFixed.
	Mode RankMode
	// FixedRank is r for RankFixed.
	FixedRank int
	// EnergyFrac is the retained-energy fraction for RankEnergy
	// (defaults to 0.9, the paper's "90% energy" observation).
	EnergyFrac float64
	// Family is the sketcher family the monitors run; the zero value is
	// the paper's random projection. For sketch.FamilyFD, Rebuild consumes
	// Fetch.Blocks and builds the model per monitor block on the small
	// side; RankThreeSigma is unsupported (it needs the global sketch
	// matrix, which FD never materializes).
	Family sketch.Family
}

// Model is a fitted sketch-PCA model at the NOC.
type Model struct {
	// Components' column j is â_j (m×m orthonormal).
	Components *mat.Matrix
	// Singular holds λ̂_j descending.
	Singular []float64
	// Means holds μ_all per flow, used to center measurements.
	Means []float64
	// Rank is the chosen normal-subspace size r.
	Rank int
	// Threshold is the δ_α control limit on the distance scale.
	Threshold float64
	// BuiltAt is the sketch interval the model was built from.
	BuiltAt int64
	// Degraded marks a model rebuilt from a degraded fetch: StaleFlows of
	// its sketches were cached reports standing in for unreachable
	// monitors, so the ε error bound of Theorem 2 holds only w.r.t. the
	// stale window those sketches cover.
	Degraded   bool
	StaleFlows int
	// ThresholdUnavailable marks a model whose residual spectrum was
	// degenerate for the Jackson–Mudholkar expansion (stats.ErrDegenerate):
	// Threshold is stored as 0 and must not be compared against. Observe
	// reports the condition on its Decision instead of alarming.
	ThresholdUnavailable bool
	// ThresholdCapped is the number of trailing residual components
	// stats.QStatisticCapped dropped to recover a usable control limit from
	// an otherwise degenerate spectrum (h0 ≤ 0). Zero means the exact
	// uncapped Jackson–Mudholkar threshold was used.
	ThresholdCapped int
}

// Detector is the NOC-side streaming detector. It is not safe for concurrent
// use; internal/noc serializes access.
type Detector struct {
	cfg   DetectorConfig
	model *Model
	// counters for the lazy protocol.
	observations int64
	fetches      int64
	alarms       int64
}

// NewDetector validates cfg.
func NewDetector(cfg DetectorConfig) (*Detector, error) {
	if cfg.NumFlows < 1 {
		return nil, fmt.Errorf("%w: %d flows", ErrConfig, cfg.NumFlows)
	}
	if cfg.WindowLen < 2 {
		return nil, fmt.Errorf("%w: window length %d", ErrConfig, cfg.WindowLen)
	}
	if cfg.SketchLen < 1 {
		return nil, fmt.Errorf("%w: sketch length %d", ErrConfig, cfg.SketchLen)
	}
	if math.IsNaN(cfg.Alpha) || cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		return nil, fmt.Errorf("%w: alpha %v", ErrConfig, cfg.Alpha)
	}
	if cfg.Mode == 0 {
		cfg.Mode = RankFixed
	}
	switch cfg.Mode {
	case RankFixed:
		if cfg.FixedRank < 0 || cfg.FixedRank > cfg.NumFlows {
			return nil, fmt.Errorf("%w: fixed rank %d with %d flows", ErrConfig, cfg.FixedRank, cfg.NumFlows)
		}
	case RankThreeSigma:
		// No parameters.
	case RankEnergy:
		if cfg.EnergyFrac == 0 {
			cfg.EnergyFrac = 0.9
		}
		if cfg.EnergyFrac <= 0 || cfg.EnergyFrac > 1 {
			return nil, fmt.Errorf("%w: energy fraction %v", ErrConfig, cfg.EnergyFrac)
		}
	default:
		return nil, fmt.Errorf("%w: unknown rank mode %d", ErrConfig, int(cfg.Mode))
	}
	switch cfg.Family {
	case sketch.FamilyRandProj:
	case sketch.FamilyFD:
		if cfg.Mode == RankThreeSigma {
			return nil, fmt.Errorf("%w: rank mode 3sigma needs the global sketch matrix, which the fd family never materializes", ErrConfig)
		}
	default:
		return nil, fmt.Errorf("%w: unknown sketch family %d", ErrConfig, int(cfg.Family))
	}
	return &Detector{cfg: cfg}, nil
}

// HasModel reports whether a model has been built.
func (d *Detector) HasModel() bool { return d.model != nil }

// Model returns the current model, or nil before the first rebuild.
func (d *Detector) Model() *Model { return d.model }

// AssembleSketchMatrix organizes per-flow sketches into the l×m matrix Ẑ.
// sketches[j] is the l-vector for global flow j; all must be present.
func AssembleSketchMatrix(sketches [][]float64, sketchLen int) (*mat.Matrix, error) {
	m := len(sketches)
	if m == 0 {
		return nil, fmt.Errorf("%w: no sketches", ErrInput)
	}
	z := mat.NewMatrix(sketchLen, m)
	for j, s := range sketches {
		if s == nil {
			return nil, fmt.Errorf("%w: missing sketch for flow %d", ErrInput, j)
		}
		if len(s) != sketchLen {
			return nil, fmt.Errorf("%w: sketch %d has length %d, want %d", ErrInput, j, len(s), sketchLen)
		}
		for k, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: non-finite sketch value for flow %d", ErrInput, j)
			}
			z.Set(k, j, v)
		}
	}
	return z, nil
}

// RebuildModel runs PCA on the sketch matrix and refreshes the threshold.
// sketches[j] and means[j] are indexed by global flow id; builtAt records the
// sketch freshness.
func (d *Detector) RebuildModel(sketches [][]float64, means []float64, builtAt int64) error {
	if len(sketches) != d.cfg.NumFlows || len(means) != d.cfg.NumFlows {
		return fmt.Errorf("%w: %d sketches and %d means for %d flows",
			ErrInput, len(sketches), len(means), d.cfg.NumFlows)
	}
	for j, v := range means {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite mean for flow %d", ErrInput, j)
		}
	}
	z, err := AssembleSketchMatrix(sketches, d.cfg.SketchLen)
	if err != nil {
		return err
	}
	// PCA on Ẑ via the m×m Gram matrix: eigenvalues are λ̂², eigenvectors
	// are the right singular vectors â — the only pieces the detector needs.
	eig, err := mat.SymEigen(z.Gram())
	if err != nil {
		return fmt.Errorf("sketch eigendecomposition: %w", err)
	}
	sv := make([]float64, d.cfg.NumFlows)
	for j, lam := range eig.Values {
		if lam < 0 {
			lam = 0
		}
		sv[j] = math.Sqrt(lam)
	}
	return d.finishModel(z, eig.Vectors, sv, len(sv), means, builtAt)
}

// finishModel runs the family-independent tail of every rebuild: rank
// selection, the Q-statistic threshold over the real (non-padded) part of
// the spectrum, and model installation. z is the sketch matrix when one
// exists (nil for FD; only RankThreeSigma reads it, and NewDetector rejects
// that combination).
func (d *Detector) finishModel(z *mat.Matrix, components *mat.Matrix, sv []float64, realLen int, means []float64, builtAt int64) error {
	rank, err := d.chooseRank(z, components, sv[:realLen])
	if err != nil {
		return fmt.Errorf("rank selection: %w", err)
	}
	threshold, unavailable, capped := 0.0, false, 0
	if rank >= realLen && realLen < d.cfg.NumFlows {
		// Truncated spectrum (FD keeps ≤ Σ2ℓ bases) with the whole of it
		// assigned to the normal subspace: the residual energy lives
		// entirely beyond what the decomposition kept, so no control limit
		// can be formed. QStatistic would report an empty residual
		// (threshold 0) — correct for a genuinely full-rank model, an
		// alarm-on-everything trap here. Same typed degradation as the
		// PR-4 degenerate-spectrum fix: keep the subspace, flag the threshold.
		unavailable = true
	} else {
		// Residual-rank capping (stats.QStatisticCapped): an h0 ≤ 0 spectrum
		// gets its near-zero trailing residual eigenvalues treated as exact
		// zeros and the limit recomputed on what remains, instead of
		// declaring the whole model threshold-less. Only when no cap admits
		// a limit does the typed degradation below fire.
		threshold, capped, err = stats.QStatisticCapped(sv[:realLen], d.cfg.WindowLen, rank, d.cfg.Alpha)
		if err != nil {
			if !errors.Is(err, stats.ErrDegenerate) {
				return fmt.Errorf("threshold: %w", err)
			}
			// A degenerate residual spectrum with no usable cap has no
			// trustworthy control limit at all. Keep the freshly fitted
			// subspace (distances are still meaningful diagnostics) but mark
			// the threshold unusable rather than storing a NaN/garbage value
			// that comparisons would silently never exceed.
			threshold, unavailable, capped = 0, true, 0
		}
	}
	d.model = &Model{
		Components:           components,
		Singular:             sv,
		Means:                append([]float64(nil), means...),
		Rank:                 rank,
		Threshold:            threshold,
		BuiltAt:              builtAt,
		ThresholdUnavailable: unavailable,
		ThresholdCapped:      capped,
	}
	return nil
}

// RebuildFD builds the model from per-monitor Frequent Directions blocks.
// Each block carries ≤ 2ℓ basis rows over its own flow columns, so the
// per-block decomposition runs on the small side: B·Bᵀ is at most 2ℓ×2ℓ and
// the right singular vectors are recovered as Bᵀu/σ — O(w·ℓ²) per block and
// never an m×m eigensolve. The union of all blocks' singular pairs, sorted
// descending, is the model spectrum: cross-monitor covariance is not
// represented (the FD trade-off DESIGN.md §15 documents), so each component
// is supported on a single monitor's flow columns.
//
// The block eigensolve is mat.SymEigenJacobi, not mat.SymEigen, on purpose.
// An aggregator-merged block stacks rows that are zero outside their source
// monitor's columns (sketch.FD.shrink keeps them so, for the wire-size reason
// stated there), so B·Bᵀ is block diagonal up to a permutation. Jacobi never
// rotates across an exact-zero pivot: every u, and with it every component
// Bᵀu/σ, is supported on one source monitor's columns exactly rather than to
// rounding. At ≤ 2ℓ = 16 rows the solve is microseconds with either solver,
// so the dense one has nothing to offer here.
func (d *Detector) RebuildFD(blocks []sketch.Snapshot, builtAt int64) error {
	m := d.cfg.NumFlows
	if len(blocks) == 0 {
		return fmt.Errorf("%w: no fd blocks", ErrInput)
	}
	type pair struct {
		s   float64
		vec []float64
	}
	var pairs []pair
	means := make([]float64, m)
	covered := make([]bool, m)
	for bi := range blocks {
		b := &blocks[bi]
		if b.Family != sketch.FamilyFD {
			return fmt.Errorf("%w: block %d is %v, want fd", ErrInput, bi, b.Family)
		}
		if err := b.Validate(d.cfg.SketchLen); err != nil {
			return fmt.Errorf("fd block %d: %w", bi, err)
		}
		w := len(b.FlowIDs)
		for i, id := range b.FlowIDs {
			if id < 0 || id >= m {
				return fmt.Errorf("%w: fd block %d reports flow %d of %d", ErrInput, bi, id, m)
			}
			if covered[id] {
				return fmt.Errorf("%w: flow %d reported by two fd blocks", ErrInput, id)
			}
			covered[id] = true
			means[id] = b.Means[i]
		}
		if len(b.FDRows) == 0 {
			continue
		}
		rows := mat.NewMatrix(len(b.FDRows), w)
		for i, r := range b.FDRows {
			copy(rows.RowView(i), r)
		}
		// B·Bᵀ = (Bᵀ)ᵀ(Bᵀ): small-side Gram; Jacobi on purpose, see above.
		eig, err := mat.SymEigenJacobi(rows.T().Gram())
		if err != nil {
			return fmt.Errorf("fd block %d eigendecomposition: %w", bi, err)
		}
		for k, lam := range eig.Values {
			if lam <= 0 {
				break // descending: the rest are zero/noise directions
			}
			s := math.Sqrt(lam)
			u := make([]float64, len(b.FDRows))
			for i := range u {
				u[i] = eig.Vectors.At(i, k)
			}
			local, err := rows.TMulVec(u) // Bᵀu = σ·v
			if err != nil {
				return fmt.Errorf("fd block %d component %d: %w", bi, k, err)
			}
			vec := make([]float64, m)
			for i, id := range b.FlowIDs {
				vec[id] = local[i] / s
			}
			pairs = append(pairs, pair{s: s, vec: vec})
		}
	}
	for id, ok := range covered {
		if !ok {
			return fmt.Errorf("%w: no fd block reported flow %d", ErrInput, id)
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].s > pairs[j].s })
	realLen := len(pairs)
	if realLen > m {
		realLen = m
	}
	components := mat.NewMatrix(m, m)
	sv := make([]float64, m)
	for j := 0; j < realLen; j++ {
		sv[j] = pairs[j].s
		for i := 0; i < m; i++ {
			components.Set(i, j, pairs[j].vec[i])
		}
	}
	return d.finishModel(nil, components, sv, realLen, means, builtAt)
}

// Rebuild dispatches a fetched sketch pull to the family's model build.
func (d *Detector) Rebuild(f Fetch) error {
	if d.cfg.Family == sketch.FamilyFD {
		return d.RebuildFD(f.Blocks, f.Interval)
	}
	return d.RebuildModel(f.Sketches, f.Means, f.Interval)
}

// chooseRank applies the configured rank policy to a freshly decomposed
// sketch matrix.
func (d *Detector) chooseRank(z *mat.Matrix, components *mat.Matrix, sv []float64) (int, error) {
	switch d.cfg.Mode {
	case RankFixed:
		return d.cfg.FixedRank, nil
	case RankEnergy:
		var total float64
		for _, s := range sv {
			total += s * s
		}
		if total == 0 {
			return 0, nil
		}
		var acc float64
		for j, s := range sv {
			acc += s * s
			if acc >= d.cfg.EnergyFrac*total {
				return j + 1, nil
			}
		}
		return len(sv), nil
	case RankThreeSigma:
		// Examine Ẑ·â_j one component at a time; the first projection with
		// an element beyond 3σ_j starts the anomalous subspace (§IV-D).
		// col and proj are reused across components: the old per-component
		// Col+MulVec pair allocated two vectors per j, which dominated the
		// rebuild profile at large m.
		l := z.Rows()
		col := make([]float64, components.Rows())
		proj := make([]float64, l)
		for j := 0; j < len(sv); j++ {
			if sv[j] == 0 {
				return j, nil
			}
			sigma := sv[j] / math.Sqrt(float64(l))
			if err := components.ColInto(j, col); err != nil {
				return 0, err
			}
			if err := z.MulVecTo(proj, col); err != nil {
				return 0, err
			}
			for _, v := range proj {
				if math.Abs(v) > 3*sigma {
					return j, nil
				}
			}
		}
		return len(sv), nil
	default:
		return 0, fmt.Errorf("%w: unknown rank mode %d", ErrConfig, int(d.cfg.Mode))
	}
}

// Distance computes the anomaly distance d_Ẑ(y) of a raw measurement vector
// (eq. 19/21) against the current model.
func (d *Detector) Distance(x []float64) (float64, error) {
	if d.model == nil {
		return 0, ErrNoModel
	}
	m := d.cfg.NumFlows
	if len(x) != m {
		return 0, fmt.Errorf("%w: vector of %d for %d flows", ErrInput, len(x), m)
	}
	y := make([]float64, m)
	for j, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("%w: non-finite measurement for flow %d", ErrInput, j)
		}
		y[j] = v - d.model.Means[j]
	}
	total := mat.Dot(y, y)
	var normal float64
	for j := 0; j < d.model.Rank; j++ {
		var s float64
		for i := 0; i < m; i++ {
			s += d.model.Components.At(i, j) * y[i]
		}
		normal += s * s
	}
	rem := total - normal
	if rem < 0 {
		rem = 0
	}
	return math.Sqrt(rem), nil
}

// Fetch is the result of one sketch pull: sketches and means indexed by
// global flow id plus the interval they cover. A fault-tolerant fetcher may
// return Degraded results where StaleFlows of the entries are cached
// reports standing in for monitors that did not answer in time.
type Fetch struct {
	Sketches [][]float64
	Means    []float64
	Interval int64
	// Blocks carries the per-monitor snapshots for the FD family, which has
	// no per-flow sketch vectors to fold into Sketches; RebuildFD consumes
	// them directly. Empty for the randproj family.
	Blocks []sketch.Snapshot
	// Degraded marks a fetch completed from partially stale inputs.
	Degraded bool
	// StaleFlows counts the flows served from cache rather than a live
	// monitor response.
	StaleFlows int
}

// FetchFunc pulls fresh sketches from the local monitors.
type FetchFunc func() (Fetch, error)

// Decision reports the outcome of one lazy-protocol observation (§IV-C).
type Decision struct {
	// Distance is the anomaly distance against the final model used.
	Distance float64
	// Threshold is the δ in force for the final comparison.
	Threshold float64
	// Anomalous is true when the measurement still exceeds δ after a
	// refresh — the paper's alarm condition.
	Anomalous bool
	// Refreshed is true when the observation triggered a sketch pull and
	// model rebuild.
	Refreshed bool
	// StaleDistance is the distance against the stale model when a refresh
	// occurred (diagnostics); equal to Distance otherwise.
	StaleDistance float64
	// Degraded is true when the model in force was built from a degraded
	// fetch (see Fetch.Degraded); it stays set on subsequent observations
	// until a full-coverage rebuild replaces the model.
	Degraded bool
	// StaleFlows is the in-force model's count of cache-substituted flows.
	StaleFlows int
	// ThresholdUnavailable is true when the final model's residual spectrum
	// was degenerate: Threshold is 0, no comparison was made, and Anomalous
	// is false regardless of Distance. Callers should surface the condition
	// (the detector is effectively blind) rather than read it as "normal".
	ThresholdUnavailable bool
}

// Observe drives the lazy detection protocol for one measurement vector:
//
//  1. no model yet → fetch, rebuild, evaluate;
//  2. d(y) ≤ δ → normal, nothing else happens;
//  3. d(y) > δ → fetch fresh sketches, rebuild model and threshold,
//     re-evaluate: still above → alarm; otherwise the model was stale and
//     has now been refreshed.
func (d *Detector) Observe(x []float64, fetch FetchFunc) (Decision, error) {
	if fetch == nil {
		return Decision{}, fmt.Errorf("%w: nil fetch", ErrInput)
	}
	d.observations++

	var dec Decision
	// evaluate is one step of the protocol: optionally pull fresh sketches
	// and rebuild, then score x against the model in force and copy that
	// model's threshold state onto the decision.
	evaluate := func(pull bool) error {
		if pull {
			f, err := fetch()
			if err != nil {
				return fmt.Errorf("fetch sketches: %w", err)
			}
			d.fetches++
			if err := d.Rebuild(f); err != nil {
				return fmt.Errorf("rebuild: %w", err)
			}
			d.model.Degraded = f.Degraded
			d.model.StaleFlows = f.StaleFlows
			dec.Refreshed = true
		}
		dist, err := d.Distance(x)
		if err != nil {
			return err
		}
		dec.Distance = dist
		dec.Threshold = d.model.Threshold
		dec.Degraded = d.model.Degraded
		dec.StaleFlows = d.model.StaleFlows
		dec.ThresholdUnavailable = d.model.ThresholdUnavailable
		return nil
	}

	if err := evaluate(d.model == nil); err != nil {
		return Decision{}, err
	}
	dec.StaleDistance = dec.Distance
	// No usable δ, or a distance above it: the model may be stale, so pull
	// fresh sketches once and re-evaluate.
	if !dec.Refreshed && (dec.ThresholdUnavailable || !(dec.Distance <= dec.Threshold)) {
		if err := evaluate(true); err != nil {
			return Decision{}, err
		}
	}
	// A spectrum that is degenerate even when fresh is reported, not
	// compared against the 0 placeholder (or, worse, a NaN — which compares
	// false and never alarms).
	if dec.ThresholdUnavailable || dec.Distance <= dec.Threshold {
		return dec, nil
	}
	dec.Anomalous = true
	d.alarms++
	return dec, nil
}

// Stats reports protocol counters: observations seen, sketch fetches
// performed and alarms raised.
func (d *Detector) Stats() (observations, fetches, alarms int64) {
	return d.observations, d.fetches, d.alarms
}
