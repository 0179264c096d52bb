package eval

import (
	"fmt"

	"streampca/internal/core"
	"streampca/internal/pca"
)

// ErrorPoint is one cell of the (r, l) error grid.
type ErrorPoint struct {
	Rank      int
	SketchLen int
	Tally
}

// SweepErrors scores the sketch method across the (rank, sketch-length) grid
// against the given ground truth (Figs. 7–9; ranks 1…10 and l = 10, 20, … in
// the paper). For each sketch length the monitor side runs once, retraining
// every s.RefitEvery intervals; each retraining is one PCA of the sketch
// matrix shared by all ranks — mirroring how the paper evaluates all r for
// each l.
func SweepErrors(s Scenario, truth *Truth, ranks, sketchLens []int) ([]ErrorPoint, error) {
	if truth == nil || len(truth.Ready) != s.Trace.NumIntervals() {
		return nil, fmt.Errorf("%w: truth does not match the volume matrix", ErrInput)
	}
	if len(ranks) == 0 || len(sketchLens) == 0 {
		return nil, fmt.Errorf("%w: empty rank or sketch-length grid", ErrConfig)
	}
	for _, r := range ranks {
		if m := s.Trace.NumFlows(); r < 0 || r > m {
			return nil, fmt.Errorf("%w: rank %d with %d flows", ErrConfig, r, m)
		}
	}
	if s.RefitEvery < 0 {
		return nil, fmt.Errorf("%w: refit cadence %d", ErrConfig, s.RefitEvery)
	}
	var out []ErrorPoint
	for _, l := range sketchLens {
		s.SketchLen = l
		points, err := s.sweepRanks(truth, ranks)
		if err != nil {
			return nil, fmt.Errorf("sketch length %d: %w", l, err)
		}
		out = append(out, points...)
	}
	return out, nil
}

// sweepRanks drives one monitor pass at s.SketchLen. The sketch matrix Ẑ
// stands in for the centered window (§IV-C), so each retraining is a
// pca.Model of ẐᵀẐ and each rank a pca.Detector on it — the same distance
// and threshold code that labels truth, fed the approximation.
func (s Scenario) sweepRanks(truth *Truth, ranks []int) ([]ErrorPoint, error) {
	mon, p, err := s.oneMonitor()
	if err != nil {
		return nil, err
	}
	points := make([]ErrorPoint, len(ranks))
	for ri, r := range ranks {
		points[ri] = ErrorPoint{Rank: r, SketchLen: s.SketchLen}
	}
	dets := make([]*pca.Detector, len(ranks))
	sinceRefit := s.RefitEvery // force a fit at the first labeled interval
	for i := 0; i < s.Trace.NumIntervals(); i++ {
		row := s.Trace.Volumes.RowView(i)
		if err := mon.Update(int64(i+1), row); err != nil {
			return nil, err
		}
		if !truth.Ready[i] {
			continue
		}
		if sinceRefit++; sinceRefit >= s.RefitEvery {
			f, err := p.Fetch(mon)
			if err != nil {
				return nil, err
			}
			z, err := core.AssembleSketchMatrix(f.Sketches, s.SketchLen)
			if err != nil {
				return nil, err
			}
			model, err := pca.NewModel(z.Gram(), f.Means, s.WindowLen)
			if err != nil {
				return nil, err
			}
			for ri, r := range ranks {
				if dets[ri], err = pca.NewDetector(model, r, s.Alpha); err != nil {
					return nil, err
				}
			}
			sinceRefit = 0
		}
		for ri, det := range dets {
			flagged, _, err := det.IsAnomalous(row)
			if err != nil {
				return nil, err
			}
			points[ri].Add(flagged, truth.Anomalous[i])
		}
	}
	return points, nil
}
