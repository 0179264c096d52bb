// Package vh implements the Variance Histogram of the sketch-based streaming
// PCA algorithm (paper §IV-B): the sliding-window variance summary of
// Zhang & Guan (PODS'07), extended so that every bucket additionally carries
// the random-projection partial sums Z_{pk} = Σ x_i·r_{ik} and
// R_{pk} = Σ r_{ik}.
//
// A histogram ingests one traffic-volume measurement per interval and
// maintains a short list of buckets whose union ε-approximates the exact
// window statistics:
//
//	(1−ε)·V ≤ V̂ ≤ V            (Lemma 1)
//
// while the embedded sketch sums let the NOC reconstruct
// ẑ_k = (1/√l)·(Z_all,k − μ_all·R_all,k), an ε-faithful random projection of
// the centered traffic column (eq. 17; see DESIGN.md §3.2 for the n_all
// typo in the printed formula).
package vh

import (
	"errors"
	"fmt"
	"math"

	"streampca/internal/randproj"
)

// Errors returned by the package.
var (
	// ErrConfig indicates an invalid histogram configuration.
	ErrConfig = errors.New("vh: invalid configuration")
	// ErrOutOfOrder indicates an update older than the current time.
	ErrOutOfOrder = errors.New("vh: out-of-order update")
	// ErrNotFinite indicates a NaN/Inf measurement.
	ErrNotFinite = errors.New("vh: non-finite measurement")
)

// Bucket summarizes a contiguous subsequence of measurements
// (paper §IV-B bucket statistics).
type Bucket struct {
	// Timestamp is the arrival time of the bucket's OLDEST element. A new
	// singleton bucket gets the element's time; a merged bucket inherits
	// the older operand's timestamp ("the merged bucket's time stamp is
	// set to be the time stamp of the older one").
	Timestamp int64
	// Count is the number of elements summarized (n_p).
	Count int64
	// Mean is the arithmetic mean of the elements (μ_p).
	Mean float64
	// Var is the sum of squared deviations Σ(x−μ_p)² (V_p, eq. 10 —
	// unnormalized, so merging is exact).
	Var float64
	// Z[k] is Σ x_i·r_{ik} over the bucket's elements (Z_pk). Nil when the
	// histogram runs without sketches.
	Z []float64
	// R[k] is Σ r_{ik} over the bucket's elements (R_pk).
	R []float64
}

// mergeInto folds b (newer) into a (older) per eqs. (11)–(15), keeping a's
// timestamp.
func (a *Bucket) mergeInto(b *Bucket) {
	na, nb := float64(a.Count), float64(b.Count)
	total := na + nb
	if total == 0 {
		return
	}
	diff := a.Mean - b.Mean
	a.Var = a.Var + b.Var + na*nb/total*diff*diff
	a.Mean = (na*a.Mean + nb*b.Mean) / total
	a.Count += b.Count
	for k := range a.Z {
		a.Z[k] += b.Z[k]
		a.R[k] += b.R[k]
	}
}

// mergedStats returns the count and variance of a∪b without materializing
// the merged bucket (used by the merge-rule tests in the update scan).
func mergedStats(a, b *Bucket) (count int64, variance float64) {
	na, nb := float64(a.Count), float64(b.Count)
	total := na + nb
	if total == 0 {
		return 0, 0
	}
	diff := a.Mean - b.Mean
	return a.Count + b.Count, a.Var + b.Var + na*nb/total*diff*diff
}

// Config parameterizes a Histogram.
type Config struct {
	// WindowLen is n, the sliding-window length in intervals. Must be ≥ 1.
	WindowLen int
	// Epsilon is the ε approximation parameter in (0, 1).
	Epsilon float64
	// Gen supplies the shared random numbers r_{tk}. May be nil, in which
	// case the histogram maintains only the variance summary (no sketch).
	Gen *randproj.Generator
}

// Histogram is the per-flow variance histogram. It is not safe for
// concurrent use; the owning monitor serializes updates.
//
// The linear summary statistics (element count, volume sum and the sketch
// sums Z, R) are additionally maintained incrementally — merges leave them
// unchanged and expiry subtracts the dropped bucket — so Sketch and
// EstimateMean run in O(l) and O(1) instead of walking every bucket.
type Histogram struct {
	cfg     Config
	sketchL int
	// buckets is ordered oldest-first; the newest bucket is at the end.
	buckets []Bucket
	now     int64
	started bool

	// Incrementally maintained linear totals over all buckets.
	totalCount int64
	totalSum   float64
	totalZ     []float64
	totalR     []float64
}

// New validates cfg and returns an empty histogram.
func New(cfg Config) (*Histogram, error) {
	if cfg.WindowLen < 1 {
		return nil, fmt.Errorf("%w: window length %d", ErrConfig, cfg.WindowLen)
	}
	if math.IsNaN(cfg.Epsilon) || cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
		return nil, fmt.Errorf("%w: epsilon %v", ErrConfig, cfg.Epsilon)
	}
	h := &Histogram{cfg: cfg}
	if cfg.Gen != nil {
		h.sketchL = cfg.Gen.SketchLen()
		h.totalZ = make([]float64, h.sketchL)
		h.totalR = make([]float64, h.sketchL)
	}
	return h, nil
}

// NumBuckets returns the current number of buckets (the space the summary
// occupies is NumBuckets·O(l)).
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// Count returns the number of elements currently summarized.
func (h *Histogram) Count() int64 { return h.totalCount }

// Update ingests the measurement x for interval t, running the three steps
// of Fig. 3: expire, insert, merge. Updates must have strictly increasing t.
func (h *Histogram) Update(t int64, x float64) error {
	var row []float64
	if h.cfg.Gen != nil {
		row = h.cfg.Gen.Row(t)
	}
	return h.UpdateWithRow(t, x, row)
}

// UpdateWithRow is Update with the caller supplying the shared random row
// r_{t,·} (row must be Gen.Row(t) or nil when no generator is configured).
// Monitors tracking many flows compute the row once per interval and share
// it across their histograms.
func (h *Histogram) UpdateWithRow(t int64, x float64, row []float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("%w: x = %v at t = %d", ErrNotFinite, x, t)
	}
	if h.started && t <= h.now {
		return fmt.Errorf("%w: t = %d, current time %d", ErrOutOfOrder, t, h.now)
	}
	if len(row) != h.sketchL {
		return fmt.Errorf("%w: row of %d for sketch length %d", ErrConfig, len(row), h.sketchL)
	}
	h.now = t
	h.started = true

	// Step 1: delete expired buckets. A bucket expires when its oldest
	// element leaves the window [t−n+1, t].
	expireBefore := t - int64(h.cfg.WindowLen)
	drop := 0
	for drop < len(h.buckets) && h.buckets[drop].Timestamp <= expireBefore {
		drop++
	}
	if drop > 0 {
		h.buckets = h.buckets[:copy(h.buckets, h.buckets[drop:])]
		// Rebase the incremental totals from the surviving buckets instead of
		// subtracting the dropped contributions: repeated subtraction leaves a
		// rounding residue that never expires, so over long runs with
		// large-magnitude volumes Sketch()/EstimateMean() drift away from the
		// bucket-list ground truth. Rebasing bounds the accumulated error to
		// one window's worth of additions.
		h.rebaseTotals()
	}

	// Step 2: create the singleton bucket B1 for the new element.
	nb := Bucket{Timestamp: t, Count: 1, Mean: x, Var: 0}
	if h.sketchL > 0 {
		nb.Z = make([]float64, h.sketchL)
		nb.R = append([]float64(nil), row...)
		for k, r := range row {
			nb.Z[k] = x * r
		}
	}
	h.totalCount++
	h.totalSum += x
	for k := range nb.Z {
		h.totalZ[k] += nb.Z[k]
		h.totalR[k] += nb.R[k]
	}
	h.buckets = append(h.buckets, nb)

	// Step 3: traverse from the newest side, maintaining the running union
	// B_B of the p newest buckets, and merge the candidate pair
	// (B_{p+1}, B_{p+2}) when both rules pass.
	h.mergeScan()
	return nil
}

// rebaseTotals recomputes totalCount/totalSum/totalZ/totalR from the bucket
// list. Merging buckets keeps the totals exact (sums are redistributed, not
// changed), so this only needs to run when expiry drops buckets. Cost is
// O(buckets·l), amortized over the ≥1 updates it took to fill the dropped
// bucket.
func (h *Histogram) rebaseTotals() {
	h.totalCount = 0
	h.totalSum = 0
	for k := range h.totalZ {
		h.totalZ[k] = 0
		h.totalR[k] = 0
	}
	for i := range h.buckets {
		b := &h.buckets[i]
		h.totalCount += b.Count
		h.totalSum += float64(b.Count) * b.Mean
		for k := range b.Z {
			h.totalZ[k] += b.Z[k]
			h.totalR[k] += b.R[k]
		}
	}
}

// mergeScan implements step 3 of Fig. 3.
func (h *Histogram) mergeScan() {
	eps := h.cfg.Epsilon
	halfWindow := float64(h.cfg.WindowLen) / 2

	last := len(h.buckets) - 1
	// Running stats of B_B = the p newest buckets; start with p = 1.
	bbCount := h.buckets[last].Count
	bbMean := h.buckets[last].Mean
	bbVar := h.buckets[last].Var
	p := 1

	for {
		newerIdx := last - p     // B_{p+1}
		olderIdx := newerIdx - 1 // B_{p+2}
		if olderIdx < 0 {
			return
		}
		older := &h.buckets[olderIdx]
		newer := &h.buckets[newerIdx]
		aCount, aVar := mergedStats(older, newer)
		if float64(aCount)+float64(bbCount) > halfWindow {
			return
		}
		// Rule 2: n_A ≤ (ε/10)·n_B.
		// Rule 1: V_{A∪B} − V_B = V_A + n_A n_B (μ_A−μ_B)²/(n_A+n_B) ≤ (ε/5)·V_B.
		aMean := (float64(older.Count)*older.Mean + float64(newer.Count)*newer.Mean) /
			float64(aCount)
		diff := aMean - bbMean
		cross := float64(aCount) * float64(bbCount) / float64(aCount+bbCount) * diff * diff
		if float64(aCount) <= eps/10*float64(bbCount) && aVar+cross <= eps/5*bbVar {
			older.mergeInto(newer)
			h.buckets = append(h.buckets[:newerIdx], h.buckets[newerIdx+1:]...)
			last--
			// p and B_B unchanged; retest the new candidate pair.
			continue
		}
		// Advance: fold B_{p+1} into B_B.
		nb, bb := float64(newer.Count), float64(bbCount)
		total := nb + bb
		d := newer.Mean - bbMean
		bbVar = newer.Var + bbVar + nb*bb/total*d*d
		bbMean = (nb*newer.Mean + bb*bbMean) / total
		bbCount += newer.Count
		p++
	}
}

// EstimateVariance returns V̂, the ε-approximate window variance (sum of
// squared deviations, eq. 10). It folds count/mean/var across the bucket list
// with the merge recurrence and never touches the Z/R sketch slices, so it is
// allocation-free on the per-interval monitor path.
func (h *Histogram) EstimateVariance() float64 {
	count, _, variance := h.aggregateMoments()
	if count == 0 {
		return 0
	}
	return variance
}

// aggregateMoments folds (count, mean, var) across the bucket list using the
// same pairwise-merge recurrence as Bucket.mergeInto, skipping the sketch
// slices.
func (h *Histogram) aggregateMoments() (count int64, mean, variance float64) {
	if len(h.buckets) == 0 {
		return 0, 0, 0
	}
	first := &h.buckets[0]
	count, mean, variance = first.Count, first.Mean, first.Var
	for i := 1; i < len(h.buckets); i++ {
		b := &h.buckets[i]
		na, nb := float64(count), float64(b.Count)
		total := na + nb
		d := mean - b.Mean
		variance = variance + b.Var + na*nb/total*d*d
		mean = (na*mean + nb*b.Mean) / total
		count += b.Count
	}
	return count, mean, variance
}

// EstimateMean returns the mean of the summarized elements (μ_all).
func (h *Histogram) EstimateMean() float64 {
	if h.totalCount == 0 {
		return 0
	}
	return h.totalSum / float64(h.totalCount)
}

// Sketch returns ẑ_k = (1/√l)·(Z_all,k − μ_all·R_all,k) for k = 0…l−1
// (eq. 17, corrected form), or nil when the histogram runs without a
// generator. It runs in O(l) off the incrementally maintained totals.
func (h *Histogram) Sketch() []float64 {
	if h.sketchL == 0 {
		return nil
	}
	mean := h.EstimateMean()
	out := make([]float64, h.sketchL)
	scale := 1 / math.Sqrt(float64(h.sketchL))
	for k := range out {
		out[k] = scale * (h.totalZ[k] - mean*h.totalR[k])
	}
	return out
}
