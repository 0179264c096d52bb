package pca

import (
	"errors"
	"fmt"
	"math"

	"streampca/internal/mat"
	"streampca/internal/stats"
)

// Window is a fixed-capacity ring buffer of measurement vectors, oldest
// evicted first — the O(nm) state Lakhina's method must keep.
type Window struct {
	n, m  int
	rows  []float64 // ring storage, n×m
	head  int       // index of the oldest row
	count int
}

// NewWindow returns a window for n vectors of m flows.
func NewWindow(n, m int) (*Window, error) {
	if n < 2 || m < 1 {
		return nil, fmt.Errorf("%w: window %dx%d", ErrInput, n, m)
	}
	return &Window{n: n, m: m, rows: make([]float64, n*m)}, nil
}

// Len returns the number of vectors currently held.
func (w *Window) Len() int { return w.count }

// Full reports whether the window holds n vectors.
func (w *Window) Full() bool { return w.count == w.n }

// Push appends a measurement vector, evicting the oldest when full.
func (w *Window) Push(x []float64) error {
	if len(x) != w.m {
		return fmt.Errorf("%w: vector of %d for %d flows", ErrInput, len(x), w.m)
	}
	var slot int
	if w.count < w.n {
		slot = (w.head + w.count) % w.n
		w.count++
	} else {
		slot = w.head
		w.head = (w.head + 1) % w.n
	}
	copy(w.rows[slot*w.m:(slot+1)*w.m], x)
	return nil
}

// Oldest returns the oldest row as a view into the ring storage; it is only
// valid until the next Push. The window must be non-empty.
func (w *Window) Oldest() ([]float64, error) {
	if w.count == 0 {
		return nil, fmt.Errorf("%w: empty window", ErrInput)
	}
	return w.rows[w.head*w.m : (w.head+1)*w.m], nil
}

// Matrix materializes the window contents as a Len()×m matrix, oldest row
// first. The data is copied.
func (w *Window) Matrix() *mat.Matrix {
	out := mat.NewMatrix(w.count, w.m)
	for i := 0; i < w.count; i++ {
		slot := (w.head + i) % w.n
		copy(out.RowView(i), w.rows[slot*w.m:(slot+1)*w.m])
	}
	return out
}

// SlidingConfig parameterizes a SlidingDetector.
type SlidingConfig struct {
	// WindowLen is n. Required, ≥ 2.
	WindowLen int
	// NumFlows is m. Required, ≥ 1.
	NumFlows int
	// Rank is the fixed normal-subspace rank r.
	Rank int
	// Alpha is the false-alarm rate for the Q threshold.
	Alpha float64
	// RefitEvery is the retraining cadence in intervals once the window is
	// full; 1 (the default when 0) refits on every interval, which is the
	// O(m²n)-per-interval cost profile the paper attributes to Lakhina's
	// method.
	RefitEvery int
}

// SlidingDetector runs the full (exact) Lakhina method online: it keeps the
// raw window, refits PCA on a cadence and tests each arriving vector.
type SlidingDetector struct {
	cfg        SlidingConfig
	window     *Window
	det        *Detector
	sinceRefit int
}

// NewSlidingDetector validates cfg and returns an empty detector.
func NewSlidingDetector(cfg SlidingConfig) (*SlidingDetector, error) {
	if cfg.RefitEvery == 0 {
		cfg.RefitEvery = 1
	}
	if cfg.RefitEvery < 0 {
		return nil, fmt.Errorf("%w: refit cadence %d", ErrInput, cfg.RefitEvery)
	}
	if cfg.Rank < 0 || cfg.Rank > cfg.NumFlows {
		return nil, fmt.Errorf("%w: rank %d with %d flows", ErrRank, cfg.Rank, cfg.NumFlows)
	}
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		return nil, fmt.Errorf("%w: alpha %v", ErrInput, cfg.Alpha)
	}
	w, err := NewWindow(cfg.WindowLen, cfg.NumFlows)
	if err != nil {
		return nil, err
	}
	return &SlidingDetector{cfg: cfg, window: w}, nil
}

// Result reports the outcome of one Observe call.
type Result struct {
	// Ready is false while the window is still filling; the remaining
	// fields are meaningful only when Ready.
	Ready bool
	// Distance is the anomaly distance of the observed vector.
	Distance float64
	// Threshold is the Q-statistic threshold in force.
	Threshold float64
	// Anomalous reports Distance > Threshold.
	Anomalous bool
	// Refitted reports whether this observation triggered a PCA refit.
	Refitted bool
	// ThresholdUnavailable reports that the current model's residual
	// spectrum admits no Q threshold (stats.ErrDegenerate); Threshold is
	// then +Inf and Anomalous is always false until a refit recovers.
	ThresholdUnavailable bool
}

// Observe pushes a measurement vector and tests it against the current
// model, refitting PCA on the configured cadence.
func (s *SlidingDetector) Observe(x []float64) (Result, error) {
	if err := s.window.Push(x); err != nil {
		return Result{}, err
	}
	if !s.window.Full() {
		return Result{}, nil
	}
	var res Result
	s.sinceRefit++
	if s.det == nil || s.sinceRefit >= s.cfg.RefitEvery {
		model, err := Fit(s.window.Matrix())
		if err != nil {
			return Result{}, fmt.Errorf("refit: %w", err)
		}
		det, err := NewDetector(model, s.cfg.Rank, s.cfg.Alpha)
		if errors.Is(err, stats.ErrDegenerate) {
			// No trustworthy threshold on this window's spectrum: keep
			// scoring distances, never alarm, recover on a later refit.
			det, err = NewDetectorThreshold(model, s.cfg.Rank, math.Inf(1))
		}
		if err != nil {
			return Result{}, fmt.Errorf("refit: %w", err)
		}
		s.det = det
		s.sinceRefit = 0
		res.Refitted = true
	}
	anomalous, dist, err := s.det.IsAnomalous(x)
	if err != nil {
		return Result{}, err
	}
	res.Ready = true
	res.Distance = dist
	res.Threshold = s.det.Threshold()
	res.Anomalous = anomalous
	res.ThresholdUnavailable = math.IsInf(res.Threshold, 1)
	return res, nil
}
