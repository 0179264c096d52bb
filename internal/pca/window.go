package pca

import "fmt"

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
	// full; 1 (the default when 0) refits on every interval, the cadence of
	// the paper's cost model for Lakhina's method.
	RefitEvery int
}

// SlidingDetector runs the full (exact) Lakhina method online: it keeps the
// raw window (as an Incremental, so a refit is O(m²) to assemble plus the
// eigensolve), refits PCA on a cadence and tests each arriving vector. It is
// the tree's one sliding exact detector; the evaluation harness reads ground
// truth off it.
type SlidingDetector struct {
	cfg        SlidingConfig
	inc        *Incremental
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
	inc, err := NewIncremental(cfg.WindowLen, cfg.NumFlows)
	if err != nil {
		return nil, err
	}
	return &SlidingDetector{cfg: cfg, inc: inc}, nil
}

// Result reports the outcome of one Observe call.
type Result struct {
	// Ready is false while the window is still filling; the remaining
	// fields are meaningful only when Ready.
	Ready bool
	// Distance is the anomaly distance of the observed vector.
	Distance float64
	// Threshold is the Q-statistic threshold in force; +Inf while the model's
	// residual spectrum admits none (see NewDetector), until a refit recovers.
	Threshold float64
	// Anomalous reports Distance > Threshold.
	Anomalous bool
	// Refitted reports whether this observation triggered a PCA refit.
	Refitted bool
}

// Observe pushes a measurement vector and tests it against the current
// model, refitting PCA on the configured cadence.
func (s *SlidingDetector) Observe(x []float64) (Result, error) {
	if err := s.inc.Push(x); err != nil {
		return Result{}, err
	}
	if !s.inc.Full() {
		return Result{}, nil
	}
	res := Result{Ready: true}
	s.sinceRefit++
	if s.det == nil || s.sinceRefit >= s.cfg.RefitEvery {
		model, err := s.inc.Model()
		if err != nil {
			return Result{}, fmt.Errorf("refit: %w", err)
		}
		if s.det, err = NewDetector(model, s.cfg.Rank, s.cfg.Alpha); err != nil {
			return Result{}, fmt.Errorf("refit: %w", err)
		}
		s.sinceRefit = 0
		res.Refitted = true
	}
	var err error
	res.Anomalous, res.Distance, err = s.det.IsAnomalous(x)
	if err != nil {
		return Result{}, err
	}
	res.Threshold = s.det.Threshold()
	return res, nil
}
