package eval

import (
	"fmt"
	"math"

	"streampca/internal/core"
	"streampca/internal/mat"
	"streampca/internal/oracle"
)

// BoundsReport records an empirical check of the paper's error bounds on one
// window of data: Lemma 5 (singular values), Lemma 6 (covariance), and
// Theorem 2 (anomaly distance).
type BoundsReport struct {
	SketchLen int
	// SingularRatios[j] = λ̂_j / η_j for the leading components (Lemma 5
	// says they concentrate in (1−3ε, 1+3ε)).
	SingularRatios []float64
	// CovRelError = ‖V − Â‖F / ‖Y‖²F (Lemma 6 bounds it by √6ε).
	CovRelError float64
	// MeanDistRelError and MaxDistRelError summarize |d_Ẑ(y) − d_Y(y)| /
	// d_Y(y) over the window rows (Theorem 2 controls this through the
	// spectral gap).
	MeanDistRelError float64
	MaxDistRelError  float64
	// SpectralGap = η²_r − η²_{r+1}, the denominator of Theorem 2's bound.
	SpectralGap float64
}

// CheckBounds runs the exact and sketch decompositions on the trailing
// window of the scenario's trace and reports the empirical error figures:
// the quantities oracle.CheckModel asserts on (oracle.MeasureModel), printed
// instead.
func CheckBounds(s Scenario) (*BoundsReport, error) {
	rows, m := s.Trace.NumIntervals(), s.Trace.NumFlows()
	if s.WindowLen < 2 || s.WindowLen > rows {
		return nil, fmt.Errorf("%w: window %d over %d rows", ErrConfig, s.WindowLen, rows)
	}
	if s.Rank < 1 || s.Rank >= m {
		return nil, fmt.Errorf("%w: rank %d with %d flows", ErrConfig, s.Rank, m)
	}

	// Sketch side: a monitor that saw exactly the trailing window, one pull,
	// one model build.
	mon, p, err := s.oneMonitor()
	if err != nil {
		return nil, err
	}
	win := mat.NewMatrix(s.WindowLen, m)
	lo := rows - s.WindowLen
	for i := 0; i < s.WindowLen; i++ {
		copy(win.RowView(i), s.Trace.Volumes.RowView(lo+i))
		if err := mon.Update(int64(lo+i+1), win.RowView(i)); err != nil {
			return nil, err
		}
	}
	f, err := p.Fetch(mon)
	if err != nil {
		return nil, err
	}
	det, err := core.NewDetector(s.detector(p))
	if err != nil {
		return nil, err
	}
	if err := det.Rebuild(f); err != nil {
		return nil, err
	}
	sk := det.Model()

	// Exact side, on a copy: MeasureModel centers its window in place and
	// the distance loop below reads the raw rows. The pull left the newest
	// row out, so the exact side does too.
	ref, err := oracle.MeasureModel(sk, win.Clone().RowsView(s.WindowLen-1), s.Alpha)
	if err != nil {
		return nil, fmt.Errorf("exact fit: %w", err)
	}
	report := &BoundsReport{SketchLen: s.SketchLen, SpectralGap: ref.Gap}
	report.SingularRatios = make([]float64, s.Rank)
	for j := range report.SingularRatios {
		if eta := ref.Exact.Singular[j]; eta > 0 {
			report.SingularRatios[j] = sk.Singular[j] / eta
		}
	}
	if ref.Energy > 0 {
		report.CovRelError = ref.CovDiff / ref.Energy
	}

	// Theorem 2: distance agreement across the window rows.
	var sum float64
	var count int
	for i := 0; i < s.WindowLen; i++ {
		row := win.RowView(i)
		de, err := ref.Det.Distance(row)
		if err != nil {
			return nil, err
		}
		ds, err := det.Distance(row)
		if err != nil {
			return nil, err
		}
		if de <= 1e-12 {
			continue
		}
		rel := math.Abs(ds-de) / de
		sum += rel
		report.MaxDistRelError = math.Max(report.MaxDistRelError, rel)
		count++
	}
	if count > 0 {
		report.MeanDistRelError = sum / float64(count)
	}
	return report, nil
}
