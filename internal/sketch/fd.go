package sketch

import (
	"fmt"
	"math"

	"streampca/internal/mat"
)

// FD is a Frequent Directions sketcher (Liberty's algorithm, analyzed for
// anomaly detection by Sharan/Gopalan/Wieder — PAPERS.md): it maintains a
// buffer B of at most 2ℓ rows over the w assigned flows. Each interval's
// volume vector is centered by the running stream mean and appended; when
// the buffer fills, it is shrunk back to ℓ rows by the smallest retained
// squared singular value δ: B ← diag(√(λᵢ−δ)/√λᵢ)·UᵀB for the top-ℓ
// eigenpairs of B·Bᵀ. The accumulated Δ = Σδ yields the deterministic
// guarantee ‖AᵀA − BᵀB‖₂ ≤ Δ ≤ ‖A‖²_F/ℓ over the centered row stream A.
//
// Unlike the variance-histogram sketch, FD summarizes the full stream prefix
// — rows never expire. The shrink runs on the small side: B·Bᵀ is 2ℓ×2ℓ, so
// one shrink costs O(ℓ²·w + ℓ³) via the Gram/Mul kernels and mat.SymEigen,
// amortized over ℓ appends.
//
// FD is not safe for concurrent use; callers serialize.
type FD struct {
	flowIDs []int
	ell     int
	// buf is the 2ℓ×w row buffer; rows [0, used) are live.
	buf  *mat.Matrix
	used int
	// delta is the accumulated shrinkage Δ.
	delta float64
	// Running mean state: sums[i] = Σ volumes[i], count = rows seen.
	sums  []float64
	count int64
	now   int64
	// rowScratch holds the centered row during Update.
	rowScratch []float64
}

// NewFD validates cfg and allocates the row buffer.
func NewFD(cfg Config) (*FD, error) {
	if err := validateFlowIDs(cfg.FlowIDs); err != nil {
		return nil, err
	}
	ell := cfg.Ell
	if ell == 0 {
		ell = DefaultEll(len(cfg.FlowIDs))
	}
	if ell < 1 {
		return nil, fmt.Errorf("%w: fd ell %d", ErrConfig, ell)
	}
	w := len(cfg.FlowIDs)
	if 2*ell >= w {
		return nil, fmt.Errorf("%w: ell %d over %d flows (2ℓ = %d ≥ w; the buffer would cost at least the exact %d×%d Gram — keep ℓ ≤ %d or widen the flow shard)",
			ErrFDBudget, ell, w, 2*ell, w, w, MaxEll(w))
	}
	return &FD{
		flowIDs:    append([]int(nil), cfg.FlowIDs...),
		ell:        ell,
		buf:        mat.NewMatrix(2*ell, w),
		sums:       make([]float64, w),
		rowScratch: make([]float64, w),
	}, nil
}

// Family implements Sketcher.
func (m *FD) Family() Family { return FamilyFD }

// FlowIDs returns a copy of the assigned global flow indices.
func (m *FD) FlowIDs() []int { return append([]int(nil), m.flowIDs...) }

// NumFlows returns w, the number of flows this sketcher handles.
func (m *FD) NumFlows() int { return len(m.flowIDs) }

// Now returns the interval of the most recent update.
func (m *FD) Now() int64 { return m.now }

// Ell returns the basis budget ℓ.
func (m *FD) Ell() int { return m.ell }

// StateSize returns the number of live buffer rows (≤ 2ℓ).
func (m *FD) StateSize() int { return m.used }

// Update ingests the volumes of interval t; volumes[i] belongs to
// FlowIDs()[i]. Intervals must be strictly increasing. The row is centered
// by the running mean over all previously ingested intervals (the stream
// analogue of the batch model's column centering) before insertion.
func (m *FD) Update(t int64, volumes []float64) error {
	if len(volumes) != len(m.flowIDs) {
		return fmt.Errorf("%w: %d volumes for %d flows", ErrInput, len(volumes), len(m.flowIDs))
	}
	if t <= m.now {
		return fmt.Errorf("%w: interval %d not after %d", ErrInput, t, m.now)
	}
	for i, v := range volumes {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite volume for flow %d", ErrInput, m.flowIDs[i])
		}
	}
	// Center by the pre-update running mean so the very first row (mean 0 of
	// an empty stream) is kept verbatim; the oracle replays this exactly.
	for i, v := range volumes {
		mean := 0.0
		if m.count > 0 {
			mean = m.sums[i] / float64(m.count)
		}
		m.rowScratch[i] = v - mean
	}
	if err := m.insertRow(m.rowScratch); err != nil {
		return err
	}
	for i, v := range volumes {
		m.sums[i] += v
	}
	m.count++
	m.now = t
	return nil
}

// insertRow appends one (already centered) row, shrinking when the buffer
// fills.
func (m *FD) insertRow(row []float64) error {
	copy(m.buf.RowView(m.used), row)
	m.used++
	if m.used == 2*m.ell {
		return m.shrink()
	}
	return nil
}

// shrink halves the full buffer: eigendecompose the small side B·Bᵀ
// (2ℓ×2ℓ), drop δ = λ_ℓ from every retained squared singular value, and
// rebuild the top-ℓ rows as scaled left-projections of B.
func (m *FD) shrink() error {
	// B·Bᵀ = (Bᵀ)ᵀ·(Bᵀ): the transpose feeds the Gram kernel, which
	// exploits symmetry.
	g := m.buf.T().Gram()
	if !g.IsFinite() {
		// Finite rows whose squared sums overflow float64; hostile payloads
		// can construct this, so fail typed instead of via the eigensolver.
		return fmt.Errorf("%w: fd shrink overflow (non-finite Gram product)", ErrInput)
	}
	eig, err := mat.SymEigen(g)
	if err != nil {
		// A finite Gram whose spectrum overflows: hostile too.
		return fmt.Errorf("%w: fd shrink eigendecomposition: %w", ErrInput, err)
	}
	delta := eig.Values[m.ell]
	if delta < 0 {
		delta = 0
	}
	// P = U_ℓᵀ·B (ℓ×w): row i is uᵢᵀB = σᵢ·vᵢᵀ, rescaled below to the
	// shrunk singular value √(λᵢ−δ).
	ut := mat.NewMatrix(m.ell, 2*m.ell)
	for i := 0; i < m.ell; i++ {
		for j := 0; j < 2*m.ell; j++ {
			ut.Set(i, j, eig.Vectors.At(j, i))
		}
	}
	p, err := ut.Mul(m.buf)
	if err != nil {
		return fmt.Errorf("fd shrink projection: %w", err)
	}
	w := len(m.flowIDs)
	for i := 0; i < m.ell; i++ {
		dst := m.buf.RowView(i)
		lam := eig.Values[i]
		if lam <= delta || lam <= 0 {
			for j := 0; j < w; j++ {
				dst[j] = 0
			}
			continue
		}
		scale := math.Sqrt((lam - delta) / lam)
		src := p.RowView(i)
		for j := 0; j < w; j++ {
			dst[j] = scale * src[j]
		}
	}
	for i := m.ell; i < 2*m.ell; i++ {
		dst := m.buf.RowView(i)
		for j := 0; j < w; j++ {
			dst[j] = 0
		}
	}
	m.used = m.ell
	m.delta += delta
	return nil
}

// Snapshot extracts the current buffer rows and running means.
func (m *FD) Snapshot() Snapshot {
	w := len(m.flowIDs)
	rep := Snapshot{
		Interval: m.now,
		FlowIDs:  append([]int(nil), m.flowIDs...),
		Means:    make([]float64, w),
		Counts:   make([]int64, w),
		Family:   FamilyFD,
		FDRows:   make([][]float64, m.used),
		FDDelta:  m.delta,
		FDEll:    m.ell,
	}
	for i := 0; i < m.used; i++ {
		rep.FDRows[i] = append([]float64(nil), m.buf.RowView(i)...)
	}
	if m.count > 0 {
		for i := range rep.Means {
			rep.Means[i] = m.sums[i] / float64(m.count)
			rep.Counts[i] = m.count
		}
	}
	return rep
}
