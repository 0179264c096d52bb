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

// bucket summarizes a contiguous subsequence of measurements
// (paper §IV-B bucket statistics).
//
// A singleton bucket is its element: Count = 1, Mean = x, Var = 0, and its
// sketch sums Z = x·r_τ, R = r_τ are read from the row ring, which any
// holder of the shared seed can refill. Only a bucket that a merge has made
// non-singleton owns a Z|R row, one slot of the histogram's slab.
type bucket struct {
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
	// slot indexes the slab row holding Z_pk = Σ x_i·r_{ik} and
	// R_pk = Σ r_{ik}; noSlot for a singleton or a sketch-less histogram.
	slot int32
}

const noSlot = -1

// mergeInto folds the moments of b (newer) into a (older) per eqs. (11)–(13),
// keeping a's timestamp. The sketch sums are Histogram.mergeRows' job.
func (a *bucket) mergeInto(b *bucket) {
	na, nb := float64(a.Count), float64(b.Count)
	total := na + nb
	if total == 0 {
		return
	}
	diff := a.Mean - b.Mean
	a.Var = a.Var + b.Var + na*nb/total*diff*diff
	a.Mean = (na*a.Mean + nb*b.Mean) / total
	a.Count += b.Count
}

// Config parameterizes a Histogram.
type Config struct {
	// WindowLen is n, the sliding-window length in intervals. Must be ≥ 1.
	WindowLen int
	// Epsilon is the ε approximation parameter in (0, 1).
	Epsilon float64
	// Gen supplies the shared random rows r_{t,·}; the histograms of one
	// monitor share one ring, which must serve windows of WindowLen. May be
	// nil, in which case the histogram maintains only the variance summary
	// (no sketch).
	Gen *randproj.Ring
}

// cliffFactor is how far the window sum may fall below its peak since the
// last rebase before expiry rebases at once; see Histogram.
const cliffFactor = 64

// Histogram is the per-flow variance histogram. It is not safe for
// concurrent use; the owning monitor serializes updates.
//
// The linear summary statistics (element count, volume sum and the sketch
// sums Z, R) are additionally maintained incrementally, so Sketch and
// EstimateMean run in O(l) and O(1) instead of walking every bucket. Merges
// leave the totals unchanged and expiry subtracts what it drops, which costs
// O(l) but leaves rounding residue behind; rebaseTotals re-sums the bucket
// list to shed it
//
//   - once at least as many updates as there are live buckets have passed
//     since the last rebase (amortised O(l) per update), at the next expiry;
//   - at once when the window sum has fallen more than cliffFactor below its
//     peak since the last rebase, because residue is sized by the totals it
//     was rounded in, not by what is left;
//   - trivially when the bucket list empties.
//
// Error bound. Let B be the buckets the last rebase summed and P the updates
// since (P ≤ B + n: the next expiry is at most n updates away), u = 2⁻⁵³.
// The rebase rounds B times and every update since at most twice, each time
// by at most u times the running total. For the non-negative volumes a
// monitor feeds, |totalZ_k| ≤ max|r|·totalSum and the second rule keeps the
// running totalSum within cliffFactor of the present one, so at every step
//
//	|totalSum − Σ n_p·μ_p| ≤ (B + 2P)·u·cliffFactor·totalSum
//	|totalZ_k − Σ Z_pk|    ≤ (B + 2P)·u·cliffFactor·totalSum·max|r|
//	|totalR_k − Σ R_pk|    ≤ (B + 2P)·u·totalCount·max|r|
//
// which is under 5n·u·cliffFactor ≈ 1.4e−10 relative at n = 4032. Signed
// inputs that cancel inside the window can hide their mass from |totalSum|;
// their residue is sized by that mass and lasts until the next scheduled
// rebase.
type Histogram struct {
	cfg     Config
	sketchL int
	// noMerge records that 2 + 20/ε > n/2: rule 2 needs n_A ≥ 2 and
	// n_B ≥ (10/ε)·n_A inside half a window, so no pair can ever merge and
	// every bucket stays a singleton. It is set one short of that, so that
	// rounding in mergeScan's own comparison cannot disagree with it.
	noMerge bool
	// store[head:] are the live buckets, oldest first; expiry advances head
	// and push compacts the dead prefix (see push).
	store   []bucket
	head    int
	now     int64
	started bool

	// slab holds one Z|R row of 2l floats per non-singleton bucket; free
	// lists the rows handed back by merges and expiry.
	slab []float64
	free []int32

	// Incrementally maintained linear totals over all buckets.
	totalCount int64
	totalSum   float64
	totalZ     []float64
	totalR     []float64
	// sinceRebase counts updates since rebaseTotals last ran, peakSum is the
	// largest |totalSum| seen since then.
	sinceRebase int
	peakSum     float64
	// scheduledRebases counts the rebases the first rule above triggered.
	scheduledRebases int
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
		if cfg.Gen.WindowLen() < cfg.WindowLen {
			return nil, fmt.Errorf("%w: row ring serves windows of %d, histogram window is %d",
				ErrConfig, cfg.Gen.WindowLen(), cfg.WindowLen)
		}
		h.sketchL = cfg.Gen.SketchLen()
		h.totalZ = make([]float64, h.sketchL)
		h.totalR = make([]float64, h.sketchL)
	}
	h.noMerge = math.Floor(20/cfg.Epsilon)+1 > float64(cfg.WindowLen)/2
	if h.noMerge {
		// At most n singletons are live, so a full store of n + ⌈n/8⌉ + 1
		// has a dead prefix of more than n/8 for push to reclaim: it never
		// grows, and moves at most n buckets no more often than every n/8
		// updates.
		n := cfg.WindowLen
		h.store = make([]bucket, 0, n+(n+7)/8+1)
	}
	return h, nil
}

// NumBuckets returns the current number of buckets: the summary holds one
// float per singleton bucket and 2l per merged one.
func (h *Histogram) NumBuckets() int { return len(h.store) - h.head }

// Count returns the number of elements currently summarized.
func (h *Histogram) Count() int64 { return h.totalCount }

// Update ingests the measurement x for interval t, running the three steps
// of Fig. 3: expire, insert, merge. Updates must have strictly increasing t.
func (h *Histogram) Update(t int64, x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("%w: x = %v at t = %d", ErrNotFinite, x, t)
	}
	if h.started && t <= h.now {
		return fmt.Errorf("%w: t = %d, current time %d", ErrOutOfOrder, t, h.now)
	}
	h.now = t
	h.started = true
	h.sinceRebase++

	// Step 1: delete expired buckets. A bucket expires when its oldest
	// element leaves the window [t−n+1, t].
	h.expire(t - int64(h.cfg.WindowLen))

	// Step 2: create the singleton bucket B1 for the new element.
	h.push(bucket{Timestamp: t, Count: 1, Mean: x, slot: noSlot})
	h.addToTotals(&h.store[len(h.store)-1], 1)
	h.peakSum = math.Max(h.peakSum, math.Abs(h.totalSum))

	// Step 3: traverse from the newest side, maintaining the running union
	// B_B of the p newest buckets, and merge the candidate pair
	// (B_{p+1}, B_{p+2}) when both rules pass.
	if !h.noMerge {
		h.mergeScan()
	}
	return nil
}

// expire drops the buckets whose oldest element is at or before the given
// time, subtracts them from the totals and rebases when a rule of the type
// comment says so.
func (h *Histogram) expire(before int64) {
	live := h.store[h.head:]
	drop := 0
	for drop < len(live) && live[drop].Timestamp <= before {
		drop++
	}
	if drop == 0 {
		return
	}
	for i := range live[:drop] {
		b := &live[i]
		h.addToTotals(b, -1)
		if b.slot != noSlot {
			h.free = append(h.free, b.slot)
		}
	}
	h.head += drop
	h.peakSum = math.Max(h.peakSum, math.Abs(h.totalSum))
	// More updates than survivors: with the bucket this update adds, at most
	// one scheduled rebase per NumBuckets() updates.
	scheduled := h.sinceRebase > len(live)-drop
	if scheduled {
		h.scheduledRebases++
	}
	if scheduled || drop == len(live) || h.peakSum > cliffFactor*math.Abs(h.totalSum) {
		h.rebaseTotals()
	}
}

// push appends b to the live buckets, reclaiming the expired prefix of a
// full store instead of growing it: always when no bucket can merge (New
// sized the store for that), else once the prefix is at least half of it.
func (h *Histogram) push(b bucket) {
	if len(h.store) == cap(h.store) && (h.noMerge || 2*h.head >= len(h.store)) {
		h.store = h.store[:copy(h.store, h.store[h.head:])]
		h.head = 0
	}
	h.store = append(h.store, b)
}

// rows returns the Z and R halves of a slab row.
func (h *Histogram) rows(slot int32) (z, r []float64) {
	l := h.sketchL
	base := int(slot) * 2 * l
	return h.slab[base : base+l : base+l], h.slab[base+l : base+2*l : base+2*l]
}

// addToTotals adds sign·(n_p, n_p·μ_p, Z_p, R_p) to the totals, sign = ±1.
// The products x·r are rounded before they are added, as a stored Z would
// be, so the totals do not depend on whether the platform fuses them.
func (h *Histogram) addToTotals(b *bucket, sign float64) {
	h.totalCount += int64(sign) * b.Count
	h.totalSum += sign * (float64(b.Count) * b.Mean)
	if h.sketchL == 0 {
		return
	}
	tz, tr := h.totalZ, h.totalR[:len(h.totalZ)]
	if b.slot == noSlot {
		x := sign * b.Mean
		for k, rk := range h.cfg.Gen.Row(b.Timestamp)[:len(tz)] {
			tz[k] += float64(x * rk)
			tr[k] += sign * rk
		}
		return
	}
	z, r := h.rows(b.slot)
	for k := range tz {
		tz[k] += sign * z[k]
		tr[k] += sign * r[k]
	}
}

// rebaseTotals recomputes totalCount/totalSum/totalZ/totalR from the bucket
// list, O(buckets·l).
func (h *Histogram) rebaseTotals() {
	h.totalCount = 0
	h.totalSum = 0
	for k := range h.totalZ {
		h.totalZ[k] = 0
		h.totalR[k] = 0
	}
	live := h.store[h.head:]
	for i := range live {
		h.addToTotals(&live[i], 1)
	}
	h.sinceRebase = 0
	h.peakSum = math.Abs(h.totalSum)
}

// mergeRows folds the sketch sums of newer into older's slab row, giving
// older a row if it was a singleton and returning newer's if it had one. It
// reads the operands' moments, so it runs before mergeInto. One ring row is
// in use at a time: a second read may reuse the ring's scratch row.
func (h *Histogram) mergeRows(older, newer *bucket) {
	if h.sketchL == 0 {
		return
	}
	if older.slot == noSlot {
		if n := len(h.free); n > 0 {
			older.slot, h.free = h.free[n-1], h.free[:n-1]
		} else {
			older.slot = int32(len(h.slab) / (2 * h.sketchL))
			h.slab = append(h.slab, make([]float64, 2*h.sketchL)...)
		}
		z, r := h.rows(older.slot)
		x := older.Mean
		for k, rk := range h.cfg.Gen.Row(older.Timestamp)[:len(z)] {
			z[k] = x * rk
			r[k] = rk
		}
	}
	z, r := h.rows(older.slot)
	if newer.slot == noSlot {
		x := newer.Mean
		for k, rk := range h.cfg.Gen.Row(newer.Timestamp)[:len(z)] {
			z[k] += float64(x * rk)
			r[k] += rk
		}
		return
	}
	nz, nr := h.rows(newer.slot)
	for k := range z {
		z[k] += nz[k]
		r[k] += nr[k]
	}
	h.free = append(h.free, newer.slot)
}

// mergeScan implements step 3 of Fig. 3.
func (h *Histogram) mergeScan() {
	eps := h.cfg.Epsilon
	halfWindow := float64(h.cfg.WindowLen) / 2

	live := h.store[h.head:]
	last := len(live) - 1
	// Running stats of B_B = the p newest buckets; start with p = 1.
	bbCount := live[last].Count
	bbMean := live[last].Mean
	bbVar := live[last].Var
	p := 1

	for {
		newerIdx := last - p     // B_{p+1}
		olderIdx := newerIdx - 1 // B_{p+2}
		if olderIdx < 0 {
			return
		}
		older := &live[olderIdx]
		newer := &live[newerIdx]
		aCount := older.Count + newer.Count
		if float64(aCount)+float64(bbCount) > halfWindow {
			return
		}
		// Rule 2: n_A ≤ (ε/10)·n_B, the integer test first.
		// Rule 1: V_{A∪B} − V_B = V_A + n_A n_B (μ_A−μ_B)²/(n_A+n_B) ≤ (ε/5)·V_B.
		if float64(aCount) <= eps/10*float64(bbCount) {
			no, nn := float64(older.Count), float64(newer.Count)
			d := older.Mean - newer.Mean
			aVar := older.Var + newer.Var + no*nn/(no+nn)*d*d
			aMean := (no*older.Mean + nn*newer.Mean) / float64(aCount)
			diff := aMean - bbMean
			cross := float64(aCount) * float64(bbCount) / float64(aCount+bbCount) * diff * diff
			if aVar+cross <= eps/5*bbVar {
				h.mergeRows(older, newer)
				older.mergeInto(newer)
				copy(live[newerIdx:], live[newerIdx+1:])
				live = live[:last]
				h.store = h.store[:len(h.store)-1]
				last--
				// p and B_B unchanged; retest the new candidate pair.
				continue
			}
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
// same pairwise-merge recurrence as bucket.mergeInto, skipping the sketch
// slices.
func (h *Histogram) aggregateMoments() (count int64, mean, variance float64) {
	live := h.store[h.head:]
	if len(live) == 0 {
		return 0, 0, 0
	}
	count, mean, variance = live[0].Count, live[0].Mean, live[0].Var
	for i := 1; i < len(live); i++ {
		b := &live[i]
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
func (h *Histogram) Sketch() []float64 { return h.SketchInto(nil) }

// SketchInto is Sketch into dst's capacity.
func (h *Histogram) SketchInto(dst []float64) []float64 {
	if h.sketchL == 0 {
		return nil
	}
	mean := h.EstimateMean()
	out := dst[:0]
	if cap(out) < h.sketchL {
		out = make([]float64, h.sketchL)
	}
	out = out[:h.sketchL]
	scale := 1 / math.Sqrt(float64(h.sketchL))
	for k := range out {
		out[k] = scale * (h.totalZ[k] - mean*h.totalR[k])
	}
	return out
}
