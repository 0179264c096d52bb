package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"streampca/internal/anomography"
	"streampca/internal/mat"
	"streampca/internal/sketch"
	"streampca/internal/stats"
)

// RankMode is not read: EnergyFrac alone chooses the rank rule. It stays
// because the benchmark (bench/) sets DetectorConfig.Mode to RankFixed.
//
// Deprecated: unread.
type RankMode int

// RankFixed is not read.
//
// Deprecated: unread.
const RankFixed RankMode = 1

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
	// Mode is not read: EnergyFrac alone chooses the rank rule. It stays
	// because the benchmark (bench/) sets it.
	//
	// Deprecated: unread.
	Mode RankMode
	// FixedRank is r when EnergyFrac is 0 (the paper's evaluation sweeps
	// r = 1…10 this way).
	FixedRank int
	// EnergyFrac, when non-zero, chooses r instead of FixedRank: the smallest
	// r whose λ̂²_j retain that fraction of Σλ̂² (the paper's "90% energy"
	// observation reads 0.9). It must lie in (0, 1].
	EnergyFrac float64
	// Family is the sketcher family the monitors run; the zero value is
	// the paper's random projection. For sketch.FamilyFD, Rebuild consumes
	// Fetch.Blocks and builds the model per monitor block on the small
	// side.
	Family sketch.Family
}

// Model is a fitted sketch-PCA model at the NOC.
type Model struct {
	// Components is the m×Rank leading basis P_r: column j is â_j, the
	// unit eigenvector of λ̂²_j. The m − Rank residual directions are never
	// built; nothing reads them.
	Components *mat.Matrix
	// Singular holds all m λ̂_j descending (zero past what the family keeps).
	Singular []float64
	// Sketch holds the rows whose Gram SketchᵀSketch is the sketch covariance
	// the model was fitted to, with eigenvalues λ̂²_j: Ẑ itself (l×m) for the
	// random-projection family, every Frequent Directions block's rows
	// scattered onto their flows and stacked for FD. The m×m covariance itself
	// is never kept. The random-projection Ẑ is the detector's storage: it is
	// valid until the next rebuild, which writes the next Ẑ into it (and,
	// should that rebuild fail, sets this field to nil).
	Sketch *mat.Matrix
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
	// The randproj rebuild's workspace, sized on the first RebuildModel and
	// reused after that, so a rebuild allocates only the model it installs:
	// z is Ẑ, which the installed model's Sketch shares; gram is the Gram of
	// the sketch matrix's smaller side, factored in place into eig; rows lists
	// Ẑ's rows for the m×m side, u holds the l×l side's leading eigenvectors,
	// uj one of them and aj its right vector. y is the centred measurement
	// Distance and Identify score, pursuit Identify's storage.
	z       *mat.Matrix
	gram    *mat.Matrix
	eig     mat.EigenLeading
	rows    [][]float64
	u       *mat.Matrix
	uj, aj  []float64
	y       []float64
	pursuit anomography.Workspace
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
	if f := cfg.EnergyFrac; f != 0 && !(f > 0 && f <= 1) {
		return nil, fmt.Errorf("%w: energy fraction %v", ErrConfig, f)
	}
	if cfg.EnergyFrac == 0 && (cfg.FixedRank < 0 || cfg.FixedRank > cfg.NumFlows) {
		return nil, fmt.Errorf("%w: fixed rank %d with %d flows", ErrConfig, cfg.FixedRank, cfg.NumFlows)
	}
	if cfg.Family != sketch.FamilyRandProj && cfg.Family != sketch.FamilyFD {
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
	return assembleSketchMatrix(nil, sketches, sketchLen)
}

// assembleSketchMatrix writes Ẑ into z, or into a new matrix when z is nil or
// of another shape, and returns it. Every sketch is validated before the
// first write, so a rejected input leaves z as it was.
func assembleSketchMatrix(z *mat.Matrix, sketches [][]float64, sketchLen int) (*mat.Matrix, error) {
	m := len(sketches)
	if m == 0 {
		return nil, fmt.Errorf("%w: no sketches", ErrInput)
	}
	for j, s := range sketches {
		if s == nil {
			return nil, fmt.Errorf("%w: missing sketch for flow %d", ErrInput, j)
		}
		if len(s) != sketchLen {
			return nil, fmt.Errorf("%w: sketch %d has length %d, want %d", ErrInput, j, len(s), sketchLen)
		}
		for _, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: non-finite sketch value for flow %d", ErrInput, j)
			}
		}
	}
	if z == nil || z.Rows() != sketchLen || z.Cols() != m {
		z = mat.NewMatrix(sketchLen, m)
	}
	for k := 0; k < sketchLen; k++ {
		row := z.RowView(k)
		for j, s := range sketches {
			row[j] = s[k]
		}
	}
	return z, nil
}

// RebuildModel runs PCA on the sketch matrix and refreshes the threshold.
// sketches[j] and means[j] are indexed by global flow id; builtAt records the
// sketch freshness. Ẑ is assembled into the detector's storage, which the
// installed model's Sketch shares: a rebuild that fails after writing it
// leaves that model in force with a nil Sketch.
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
	z, err := assembleSketchMatrix(d.z, sketches, d.cfg.SketchLen)
	if err != nil {
		return err
	}
	d.z = z
	// PCA on Ẑ: the eigenvalues are λ̂², the eigenvectors the right singular
	// vectors â. The side is chosen by shape: the l×l ẐẐᵀ when it is the
	// smaller one and the sketch is well conditioned at the cut, the m×m
	// Gram otherwise.
	model, err := d.fitSmallSide(z, sketches)
	if errors.Is(err, errNeedGram) {
		model, err = d.fitGram(z)
	}
	if err == nil {
		model.Sketch = z
		err = d.finishModel(model, len(model.Singular), means, builtAt)
	}
	if err != nil && d.model != nil && d.model.Sketch == z {
		d.model.Sketch = nil
	}
	return err
}

// errNeedGram is fitSmallSide's answer when the model has to come from the
// m×m Gram instead.
var errNeedGram = errors.New("core: sketch model needs the m×m Gram")

// factor builds the n×n Gram of rows, each of length n, in the workspace and
// factors it in place into d.eig.
func (d *Detector) factor(n int, rows [][]float64) error {
	if d.gram == nil || d.gram.Rows() != n {
		d.gram = mat.NewMatrix(n, n)
	}
	if err := mat.RowGramInto(d.gram, rows); err != nil {
		return err
	}
	if err := d.eig.Factor(d.gram); err != nil {
		return fmt.Errorf("sketch eigendecomposition: %w", err)
	}
	return nil
}

// fitGram fits the model through the m×m Gram ẐᵀẐ. The threshold reads
// every λ̂, the detector only the leading r vectors, so only those are built,
// straight into the model's basis.
//
// Past the sketch's numerical rank, where λ̂²_j ≤ m·2⁻⁵²·λ̂²_1 (l < m, or a
// rank-deficient sketch), the eigenvalues are rounding noise of one
// near-null space and its eigenvectors are not determined by the matrix: any
// orthonormal basis of it is as good. A rank past it — a fixed rank above l,
// or an energy fraction near enough 1 to count rounding noise — takes all r
// columns from the all-pairs mat.SymEigen, the exact reference the
// oracle decomposes, so that such a model is the one the reference builds
// (TestLeadingBasisMatchesFullSolve's l < m row). No rebuild of
// abilene-eval's evaluations or of the benchmark's workloads takes that path.
// It allocates an m×m Gram and the full solve besides the model, 179 KB at
// m = 81.
func (d *Detector) fitGram(z *mat.Matrix) (*Model, error) {
	d.rows = d.rows[:0]
	for k := 0; k < z.Rows(); k++ {
		d.rows = append(d.rows, z.RowView(k))
	}
	err := d.factor(z.Cols(), d.rows)
	clear(d.rows)
	if err != nil {
		return nil, err
	}
	m := d.cfg.NumFlows
	floor := float64(m) * 0x1p-52 * d.eig.Values[0]
	k := 0
	for k < m && d.eig.Values[k] > floor {
		k++
	}
	sv := singularValues(d.eig.Values, m)
	rank := d.chooseRank(sv)
	basis := mat.NewMatrix(m, rank)
	if rank > k {
		// The whole basis, so that its leading columns share the rounding of
		// the near-null ones and stay orthogonal to them within n·ε, not
		// ε·λ̂²_1/λ̂²_{k−1}.
		full, err := mat.SymEigen(z.Gram())
		if err != nil {
			return nil, fmt.Errorf("sketch eigendecomposition: %w", err)
		}
		for i := 0; i < m; i++ {
			copy(basis.RowView(i), full.Vectors.RowView(i)[:rank])
		}
	} else if err := d.eig.VectorsInto(basis); err != nil {
		return nil, fmt.Errorf("sketch eigendecomposition: %w", err)
	}
	return &Model{Components: basis, Singular: sv, Rank: rank}, nil
}

// fitSmallSide fits the model through the l×l matrix ẐẐᵀ, built straight from
// the per-flow sketches (the rows of Ẑᵀ), which has the Gram's non-zero
// spectrum: its eigenpairs are (λ̂²_j, u_j), â_j = Ẑᵀu_j/λ̂_j, and the other
// m − l eigenvalues of the Gram are exactly zero. Nothing m×m is formed or
// solved.
//
// It returns errNeedGram when l ≥ m, or when the sketch is rank-deficient at
// the cut: when the first residual component has λ̂²_j ≤ l·2⁻⁵²·λ̂²_1 (always
// so for r ≥ l). There Ẑᵀu_j/λ̂_j is rounding noise rather than a unit
// vector, and the Gram's rounding-level eigenvalues, which stand where this
// side has exact zeros, would set the residual spectrum.
func (d *Detector) fitSmallSide(z *mat.Matrix, sketches [][]float64) (*Model, error) {
	l := z.Rows()
	if l >= z.Cols() {
		return nil, errNeedGram
	}
	if err := d.factor(l, sketches); err != nil {
		return nil, err
	}
	eig := &d.eig
	sv := singularValues(eig.Values, d.cfg.NumFlows)
	// λ̂_0 … λ̂_{k−1} are the components above rounding level.
	floor := float64(l) * 0x1p-52 * eig.Values[0]
	k := 0
	for k < l && eig.Values[k] > floor {
		k++
	}
	rank := d.chooseRank(sv)
	if rank >= k {
		return nil, errNeedGram
	}
	basis := mat.NewMatrix(d.cfg.NumFlows, rank)
	if d.u == nil || d.u.Rows() != l || d.u.Cols() != rank {
		d.u = mat.NewMatrix(l, rank)
	}
	if err := eig.VectorsInto(d.u); err != nil {
		return nil, fmt.Errorf("sketch eigendecomposition: %w", err)
	}
	if len(d.uj) != l || len(d.aj) != d.cfg.NumFlows {
		d.uj, d.aj = make([]float64, l), make([]float64, d.cfg.NumFlows)
	}
	for j := 0; j < rank; j++ {
		if err := d.u.ColInto(j, d.uj); err != nil {
			return nil, err
		}
		if err := rightVector(d.aj, z, d.uj, sv[j]); err != nil {
			return nil, err
		}
		for f, x := range d.aj {
			basis.Set(f, j, x)
		}
	}
	return &Model{Components: basis, Singular: sv, Rank: rank}, nil
}

// singularValues returns λ̂_j = √λ̂²_j for the descending eigenvalues of a
// sketch Gram, negative rounding clamped to zero and the tail zero-padded to
// m entries.
func singularValues(values []float64, m int) []float64 {
	sv := make([]float64, m)
	for j, lam := range values {
		if lam < 0 {
			lam = 0
		}
		sv[j] = math.Sqrt(lam)
	}
	return sv
}

// rightVector writes into dst the right singular vector Bᵀu/σ of the rows B,
// recovered from an eigenvector u of B·Bᵀ with eigenvalue σ².
func rightVector(dst []float64, b *mat.Matrix, u []float64, s float64) error {
	if err := b.TMulVecTo(dst, u); err != nil {
		return err
	}
	for i := range dst {
		dst[i] /= s
	}
	return nil
}

// finishModel runs the family-independent tail of every rebuild: the
// Q-statistic threshold over the real (non-padded) part of the spectrum and
// model installation. model carries the family's Components, Singular,
// Sketch and Rank.
func (d *Detector) finishModel(model *Model, realLen int, means []float64, builtAt int64) error {
	model.Means = append([]float64(nil), means...)
	model.BuiltAt = builtAt
	if model.Rank >= realLen && realLen < d.cfg.NumFlows {
		// Truncated spectrum (FD keeps ≤ Σ2ℓ bases) with the whole of it
		// assigned to the normal subspace: the residual energy lives
		// entirely beyond what the decomposition kept, so no control limit
		// can be formed. QStatistic would report an empty residual
		// (threshold 0) — correct for a genuinely full-rank model, an
		// alarm-on-everything trap here. Same typed degradation as the
		// PR-4 degenerate-spectrum fix: keep the subspace, flag the threshold.
		model.ThresholdUnavailable = true
	} else {
		// Residual-rank capping (stats.QStatisticCapped): an h0 ≤ 0 spectrum
		// gets its near-zero trailing residual eigenvalues treated as exact
		// zeros and the limit recomputed on what remains, instead of
		// declaring the whole model threshold-less. Only when no cap admits
		// a limit does the typed degradation below fire.
		threshold, capped, err := stats.QStatisticCapped(model.Singular[:realLen], d.cfg.WindowLen, model.Rank, d.cfg.Alpha)
		switch {
		case err == nil:
			model.Threshold, model.ThresholdCapped = threshold, capped
		case errors.Is(err, stats.ErrDegenerate):
			// A degenerate residual spectrum with no usable cap has no
			// trustworthy control limit at all. Keep the freshly fitted
			// subspace (distances are still meaningful diagnostics) but mark
			// the threshold unusable (stored as 0) rather than storing a
			// NaN/garbage value that comparisons would silently never exceed.
			model.ThresholdUnavailable = true
		default:
			return fmt.Errorf("threshold: %w", err)
		}
	}
	d.model = model
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
func (d *Detector) RebuildFD(blocks []sketch.Snapshot, builtAt int64) error {
	m := d.cfg.NumFlows
	if len(blocks) == 0 {
		return fmt.Errorf("%w: no fd blocks", ErrInput)
	}
	// A pair keeps its block's rows and eigenvector u; only the top-rank
	// pairs have Bᵀu/σ recovered and scattered into the basis.
	type pair struct {
		s    float64
		ids  []int
		rows *mat.Matrix
		u    []float64
	}
	var pairs []pair
	means := make([]float64, m)
	covered := make([]bool, m)
	numRows := 0
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
		numRows += len(b.FDRows)
		// B·Bᵀ = (Bᵀ)ᵀ(Bᵀ): small-side Gram.
		eig, err := mat.SymEigen(rows.T().Gram())
		if err != nil {
			return fmt.Errorf("fd block %d eigendecomposition: %w", bi, err)
		}
		for k, lam := range eig.Values {
			if lam <= 0 {
				break // descending: the rest are zero/noise directions
			}
			u := make([]float64, len(b.FDRows))
			for i := range u {
				u[i] = eig.Vectors.At(i, k)
			}
			pairs = append(pairs, pair{s: math.Sqrt(lam), ids: b.FlowIDs, rows: rows, u: u})
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
	sv := make([]float64, m)
	for j := 0; j < realLen; j++ {
		sv[j] = pairs[j].s
	}
	rank := d.chooseRank(sv[:realLen])
	// Columns past the kept spectrum stay zero: a fixed rank may exceed it.
	basis := mat.NewMatrix(m, rank)
	for j := 0; j < rank && j < realLen; j++ {
		p := pairs[j]
		v := make([]float64, p.rows.Cols())
		if err := rightVector(v, p.rows, p.u, p.s); err != nil {
			return fmt.Errorf("fd component %d: %w", j, err)
		}
		for i, id := range p.ids {
			basis.Set(id, j, v[i])
		}
	}
	// Every block's rows on their own flows, stacked: blocks own disjoint
	// flows, so the Gram of this is the blocks' BᵀB side by side.
	stacked := mat.NewMatrix(numRows, m)
	r := 0
	for _, b := range blocks {
		for _, row := range b.FDRows {
			dst := stacked.RowView(r)
			for i, id := range b.FlowIDs {
				dst[id] = row[i]
			}
			r++
		}
	}
	return d.finishModel(&Model{Components: basis, Singular: sv, Sketch: stacked, Rank: rank}, realLen, means, builtAt)
}

// Rebuild dispatches a fetched sketch pull to the family's model build.
func (d *Detector) Rebuild(f Fetch) error {
	if d.cfg.Family == sketch.FamilyFD {
		return d.RebuildFD(f.Blocks, f.Interval)
	}
	return d.RebuildModel(f.Sketches, f.Means, f.Interval)
}

// chooseRank applies the configured rank rule to a freshly decomposed
// spectrum sv: FixedRank when EnergyFrac is 0, else the smallest r retaining
// EnergyFrac of Σλ̂².
func (d *Detector) chooseRank(sv []float64) int {
	if d.cfg.EnergyFrac == 0 {
		return d.cfg.FixedRank
	}
	var total float64
	for _, s := range sv {
		total += s * s
	}
	if total == 0 {
		return 0
	}
	var acc float64
	for j, s := range sv {
		acc += s * s
		if acc >= d.cfg.EnergyFrac*total {
			return j + 1
		}
	}
	return len(sv)
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
	if len(d.y) != m {
		d.y = make([]float64, m)
	}
	y := d.y
	for j, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("%w: non-finite measurement for flow %d", ErrInput, j)
		}
		y[j] = v - d.model.Means[j]
	}
	if d.model.Rank >= m {
		// The normal subspace is every direction: the distance is 0 exactly,
		// not the rounding left of ‖y‖² − ‖P_rᵀy‖², which would alarm
		// against a full-rank model's threshold of 0.
		return 0, nil
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

// Assemble fills f from validated sketch reports, reusing its arrays. For
// the randproj family it scatters them into flow-indexed Sketches and Means,
// leaving nil the flows no report covers (the caller rejects or fills those);
// for FD the reports become Blocks in sketch.CanonicalOrder, so FD model
// assembly is identical across topologies — a federated tier renames the
// registrants and rendezvous placement permutes which name fronts which
// shard, but the shards themselves are fixed. Interval is the newest
// report's. The retained slices are the reports' own.
func (f *Fetch) Assemble(family sketch.Family, numFlows int, reports []SketchReport) error {
	*f = Fetch{Sketches: f.Sketches[:0], Means: f.Means[:0], Blocks: f.Blocks[:0]}
	for i := range reports {
		f.Interval = max(f.Interval, reports[i].Interval)
	}
	if family == sketch.FamilyFD {
		for _, i := range sketch.CanonicalOrder(reports) {
			f.Blocks = append(f.Blocks, reports[i])
		}
		return nil
	}
	f.Sketches = append(f.Sketches, make([][]float64, numFlows)...)
	f.Means = append(f.Means, make([]float64, numFlows)...)
	for _, rep := range reports {
		for i, id := range rep.FlowIDs {
			if id < 0 || id >= numFlows {
				return fmt.Errorf("%w: reported flow %d of %d", ErrInput, id, numFlows)
			}
			f.Sketches[id], f.Means[id] = rep.Sketches[i], rep.Means[i]
		}
	}
	return nil
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
	return dec, nil
}
