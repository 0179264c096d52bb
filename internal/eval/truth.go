package eval

import (
	"fmt"

	"streampca/internal/pca"
)

// Truth holds per-interval ground-truth labels from the exact method.
type Truth struct {
	// Ready[i] is true once the window was full at interval i; labels are
	// only meaningful where Ready.
	Ready []bool
	// Anomalous[i] is the exact method's verdict. A refit whose residual
	// spectrum admits no control limit labels its intervals "normal"
	// (pca.NewDetector) rather than aborting the labeling.
	Anomalous []bool
	// NumAnomalous and NumNormal count labeled intervals.
	NumAnomalous int
	NumNormal    int
}

// GroundTruth runs the exact Lakhina method — pca.SlidingDetector at rank
// s.Rank, refitting every s.RefitEvery intervals — over the trace and
// records its verdicts: the labels the sketch method is scored against.
func GroundTruth(s Scenario) (*Truth, error) {
	rows := s.Trace.NumIntervals()
	if s.WindowLen > rows {
		return nil, fmt.Errorf("%w: window %d over %d intervals", ErrConfig, s.WindowLen, rows)
	}
	exact, err := pca.NewSlidingDetector(pca.SlidingConfig{
		WindowLen: s.WindowLen, NumFlows: s.Trace.NumFlows(),
		Rank: s.Rank, Alpha: s.Alpha, RefitEvery: s.RefitEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	truth := &Truth{Ready: make([]bool, rows), Anomalous: make([]bool, rows)}
	for i := 0; i < rows; i++ {
		res, err := exact.Observe(s.Trace.Volumes.RowView(i))
		if err != nil {
			return nil, fmt.Errorf("interval %d: %w", i, err)
		}
		if !res.Ready {
			continue
		}
		truth.Ready[i] = true
		truth.Anomalous[i] = res.Anomalous
		if res.Anomalous {
			truth.NumAnomalous++
		} else {
			truth.NumNormal++
		}
	}
	return truth, nil
}
