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
	"slices"

	"streampca/internal/mat"
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
// A histogram stores a singleton bucket as its element alone, one float of
// its window ring: Count = 1, Mean = x, Var = 0, and its sketch sums
// Z = x·r_τ, R = r_τ are read from the row ring, which any holder of the
// shared seed can refill. Only a bucket that a merge has made non-singleton is
// kept as a bucket, and owns a Z|R row, one slot of the histogram's slab.
type bucket struct {
	// Timestamp is the arrival time of the bucket's OLDEST element. A new
	// singleton bucket gets the element's time; a merged bucket inherits
	// the older operand's timestamp ("the merged bucket's time stamp is
	// set to be the time stamp of the older one").
	Timestamp int64
	// Last is the arrival time of the bucket's newest element.
	Last int64
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
	a.Last = b.Last
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

// onePass lets Update slide the sketch totals in one mat.SlideSums pass when
// one singleton leaves, one enters and no rebase is due. Only tests clear it,
// to run the same stream through the expiry and insertion passes it replaces.
var onePass = true

// cliffFactor is how far the window sum may fall below its peak since the
// last rebase before expiry rebases at once; see Histogram.
const cliffFactor = 64

// Histogram is the per-flow variance histogram. It is not safe for
// concurrent use; the owning monitor serializes updates.
//
// Its buckets are held in two places that together keep their time order:
// a ring of n floats, one per time of the window, which holds each live
// singleton's element, and the list of merged buckets, oldest first. Where
// nothing merges (rule 2 cannot fire below n = 40/ε + 4) the list stays
// empty and the ring is the exact window.
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
	// window[τ mod n] is the element of time τ ∈ [now−n+1, now] while it is
	// a live singleton bucket, else NaN (no update at τ, or a merge took it);
	// newest is the slot of now, and singles counts the live singletons.
	window  []float64
	newest  int
	singles int
	// since is the time of the first update after the histogram was last
	// empty: no bucket is older, so the walks start there when it is
	// inside the window.
	since int64
	// merged are the live non-singleton buckets, oldest first.
	merged  []bucket
	now     int64
	started bool

	// slab holds one Z|R row of 2l floats per merged bucket; free lists the
	// rows handed back by merges and expiry.
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
	h := &Histogram{cfg: cfg, window: make([]float64, cfg.WindowLen)}
	for i := range h.window {
		h.window[i] = math.NaN()
	}
	if cfg.Gen != nil {
		if cfg.Gen.WindowLen() < cfg.WindowLen {
			return nil, fmt.Errorf("%w: row ring serves windows of %d, histogram window is %d",
				ErrConfig, cfg.Gen.WindowLen(), cfg.WindowLen)
		}
		h.sketchL = cfg.Gen.SketchLen()
		h.totalZ = make([]float64, h.sketchL)
		h.totalR = make([]float64, h.sketchL)
	}
	return h, nil
}

// NumBuckets returns the current number of buckets: the summary holds one
// float per singleton bucket and 2l per merged one.
func (h *Histogram) NumBuckets() int { return h.singles + len(h.merged) }

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
	h.started = true
	h.sinceRebase++

	// Step 1: delete expired buckets. A bucket expires when its oldest
	// element leaves the window [t−n+1, t].
	old, slide := h.expire(t - int64(h.cfg.WindowLen))

	// Step 2: create the singleton bucket B1 for the new element.
	if h.NumBuckets() == 0 {
		h.since = t
	}
	h.newest = h.slotAfter(h.newest, t-h.now)
	h.now = t
	h.window[h.newest] = x
	h.singles++
	b := single(t, x)
	h.addScalars(&b, 1)
	h.peakSum = math.Max(h.peakSum, math.Abs(h.totalSum))
	if slide {
		// The ring keeps both rows valid together.
		in := h.cfg.Gen.Row(t)
		mat.SlideSums(h.totalZ, h.totalR, h.cfg.Gen.Row(old.Timestamp), in, -old.Mean, x)
	} else {
		h.addRows(&b, 1)
	}

	// Step 3: traverse from the newest side, maintaining the running union
	// B_B of the p newest buckets, and merge the candidate pair
	// (B_{p+1}, B_{p+2}) when both rules pass.
	h.mergeScan()
	return nil
}

// single is the bucket of the singleton x at time t.
func single(t int64, x float64) bucket {
	return bucket{Timestamp: t, Last: t, Count: 1, Mean: x, slot: noSlot}
}

// slotAfter returns the window slot of the time d intervals after the one
// whose slot is i.
func (h *Histogram) slotAfter(i int, d int64) int {
	n := int64(len(h.window))
	if d >= n || d <= -n {
		d %= n
	}
	j := int64(i) + d
	if j >= n {
		j -= n
	} else if j < 0 {
		j += n
	}
	return int(j)
}

// first returns the oldest time that can hold a live bucket, and its window
// slot.
func (h *Histogram) first() (int64, int) {
	t := max(h.now-int64(len(h.window))+1, h.since)
	return t, h.slotAfter(h.newest, t-h.now)
}

// each calls f on the live buckets of times up to end, oldest first.
func (h *Histogram) each(end int64, f func(bucket)) {
	t, i := h.first()
	for next := 0; t <= end; {
		if next < len(h.merged) && h.merged[next].Timestamp == t {
			b := h.merged[next]
			next++
			f(b)
			// A merge emptied the slots of the times it covers.
			i, t = h.slotAfter(i, b.Last-t+1), b.Last+1
			continue
		}
		if x := h.window[i]; !math.IsNaN(x) {
			f(single(t, x))
		}
		if t, i = t+1, i+1; i == len(h.window) {
			i = 0
		}
	}
}

// expire drops the buckets whose oldest element is at or before the given
// time, subtracts them from the totals and rebases when a rule of the type
// comment says so. When one singleton left and no rebase is due, it leaves
// that bucket's sketch sums to Update's one pass: it returns the bucket and
// slide = true.
func (h *Histogram) expire(before int64) (old bucket, slide bool) {
	live := h.NumBuckets()
	if live == 0 {
		return bucket{}, false
	}
	end := min(before, h.now)
	drop := 0
	h.each(end, func(b bucket) {
		if drop == 0 {
			old = b
		}
		drop++
		h.addScalars(&b, -1)
	})
	if drop == 0 {
		return bucket{}, false
	}
	h.peakSum = math.Max(h.peakSum, math.Abs(h.totalSum))
	// More updates than survivors: with the bucket this update adds, at most
	// one scheduled rebase per NumBuckets() updates.
	scheduled := h.sinceRebase > live-drop
	if scheduled {
		h.scheduledRebases++
	}
	rebase := scheduled || drop == live || h.peakSum > cliffFactor*math.Abs(h.totalSum)
	slide = !rebase && onePass && drop == 1 && old.Count == 1 && h.sketchL > 0
	if !rebase && !slide {
		h.each(end, func(b bucket) { h.addRows(&b, -1) })
	}
	h.remove(end, drop)
	if rebase {
		h.rebaseTotals()
		return bucket{}, false
	}
	return old, slide
}

// remove takes the drop live buckets of times up to end out of the window
// and the merged list, handing the merged ones' slab rows back.
func (h *Histogram) remove(end int64, drop int) {
	for t, i := h.first(); t <= end; t++ {
		h.window[i] = math.NaN()
		if i++; i == len(h.window) {
			i = 0
		}
	}
	k := 0
	for ; k < len(h.merged) && h.merged[k].Timestamp <= end; k++ {
		if s := h.merged[k].slot; s != noSlot {
			h.free = append(h.free, s)
		}
	}
	if k > 0 {
		h.merged = h.merged[:copy(h.merged, h.merged[k:])]
	}
	h.singles -= drop - k
}

// rows returns the Z and R halves of a slab row.
func (h *Histogram) rows(slot int32) (z, r []float64) {
	l := h.sketchL
	base := int(slot) * 2 * l
	return h.slab[base : base+l : base+l], h.slab[base+l : base+2*l : base+2*l]
}

// addScalars adds sign·(n_p, n_p·μ_p) to the totals, sign = ±1.
func (h *Histogram) addScalars(b *bucket, sign float64) {
	h.totalCount += int64(sign) * b.Count
	h.totalSum += sign * (float64(b.Count) * b.Mean)
}

// addRows adds sign·(Z_p, R_p) to the sketch totals, sign = ±1. mat's row
// updates round the products x·r before they add them, as a stored Z is
// rounded, so the totals do not depend on whether the platform fuses them.
func (h *Histogram) addRows(b *bucket, sign float64) {
	if h.sketchL == 0 {
		return
	}
	if b.slot == noSlot {
		row := h.cfg.Gen.Row(b.Timestamp)
		mat.AddScaled(h.totalZ, sign*b.Mean, row)
		mat.AddScaled(h.totalR, sign, row)
		return
	}
	z, r := h.rows(b.slot)
	mat.AddScaled(h.totalZ, sign, z)
	mat.AddScaled(h.totalR, sign, r)
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
	h.each(h.now, func(b bucket) {
		h.addScalars(&b, 1)
		h.addRows(&b, 1)
	})
	h.sinceRebase = 0
	h.peakSum = math.Abs(h.totalSum)
}

// mergeRows folds the sketch sums of newer into older's slab row, giving
// older a row if it was a singleton and returning newer's if it had one. It
// reads the operands' moments, so it runs before mergeInto.
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
		// A first write, not 0 + x·r: a −0 product stays −0.
		z, r := h.rows(older.slot)
		x := older.Mean
		for k, rk := range h.cfg.Gen.Row(older.Timestamp)[:len(z)] {
			z[k] = x * rk
			r[k] = rk
		}
	}
	z, r := h.rows(older.slot)
	if newer.slot == noSlot {
		row := h.cfg.Gen.Row(newer.Timestamp)
		mat.AddScaled(z, newer.Mean, row)
		mat.AddScaled(r, 1, row)
		return
	}
	nz, nr := h.rows(newer.slot)
	mat.AddScaled(z, 1, nz)
	mat.AddScaled(r, 1, nr)
	h.free = append(h.free, newer.slot)
}

// pos is where mergeScan holds a live bucket: the time and window slot of
// its oldest element and the number of merged buckets older than it; a
// merged bucket is h.merged[older].
type pos struct {
	t      int64
	i      int
	older  int
	merged bool
}

// at returns the bucket at p.
func (h *Histogram) at(p pos) bucket {
	if p.merged {
		return h.merged[p.older]
	}
	return single(p.t, h.window[p.i])
}

// merge replaces the adjacent buckets at older and newer by their union and
// returns where that lies.
func (h *Histogram) merge(older, newer pos) pos {
	a, b := h.at(older), h.at(newer)
	h.mergeRows(&a, &b)
	a.mergeInto(&b)
	switch {
	case older.merged && newer.merged:
		h.merged[older.older] = a
		h.merged = slices.Delete(h.merged, newer.older, newer.older+1)
	case older.merged:
		h.merged[older.older] = a
	case newer.merged:
		h.merged[newer.older] = a
	default:
		h.merged = slices.Insert(h.merged, older.older, a)
	}
	for _, p := range [2]pos{older, newer} {
		if !p.merged {
			h.window[p.i] = math.NaN()
			h.singles--
		}
	}
	older.merged = true
	return older
}

// mergeScan implements step 3 of Fig. 3.
func (h *Histogram) mergeScan() {
	eps := h.cfg.Epsilon
	halfWindow := float64(h.cfg.WindowLen) / 2
	// Rule 2 needs n_B ≥ (10/ε)·n_A with n_A ≥ 2 and n_A + n_B ≤ n/2: when
	// the largest such n_B fails it, so does every pair, in the same
	// rounding as the test below.
	if 2 > eps/10*float64(h.cfg.WindowLen/2-2) {
		return
	}

	// Running stats of B_B = the p newest buckets; start with p = 1, the
	// singleton Update just made. Each step walks back from newer to the
	// bucket before it: B_{p+1} on the first step, while newer is still
	// B_1 (nCount = 0), and B_{p+2} after.
	bbCount, bbMean, bbVar := int64(1), h.window[h.newest], 0.0
	gone, _ := h.first()
	gone-- // the newest time that holds no bucket
	newer := pos{t: h.now, i: h.newest, older: len(h.merged)}
	var nCount int64
	var nMean, nVar float64
	for {
		// Back over the empty slots to a singleton, or to the merged
		// bucket that ends there.
		older := pos{t: newer.t, i: newer.i, older: newer.older}
		oCount, oMean, oVar := int64(1), 0.0, 0.0
		for {
			if older.t--; older.t <= gone {
				return
			}
			if older.i--; older.i < 0 {
				older.i = len(h.window) - 1
			}
			if oMean = h.window[older.i]; !math.IsNaN(oMean) {
				break
			}
			if k := older.older; k > 0 && h.merged[k-1].Last == older.t {
				m := &h.merged[k-1]
				older = pos{t: m.Timestamp, i: h.slotAfter(older.i, m.Timestamp-older.t), older: k - 1, merged: true}
				oCount, oMean, oVar = m.Count, m.Mean, m.Var
				break
			}
		}
		if nCount == 0 {
			newer, nCount, nMean, nVar = older, oCount, oMean, oVar
			continue
		}
		aCount := oCount + nCount
		if float64(aCount)+float64(bbCount) > halfWindow {
			return
		}
		// Rule 2: n_A ≤ (ε/10)·n_B, the integer test first.
		// Rule 1: V_{A∪B} − V_B = V_A + n_A n_B (μ_A−μ_B)²/(n_A+n_B) ≤ (ε/5)·V_B.
		if float64(aCount) <= eps/10*float64(bbCount) {
			no, nn := float64(oCount), float64(nCount)
			d := oMean - nMean
			aVar := oVar + nVar + no*nn/(no+nn)*d*d
			aMean := (no*oMean + nn*nMean) / float64(aCount)
			diff := aMean - bbMean
			cross := float64(aCount) * float64(bbCount) / float64(aCount+bbCount) * diff * diff
			if aVar+cross <= eps/5*bbVar {
				// p and B_B unchanged; retest the new candidate pair.
				newer = h.merge(older, newer)
				b := h.at(newer)
				nCount, nMean, nVar = b.Count, b.Mean, b.Var
				continue
			}
		}
		// Advance: fold B_{p+1} into B_B.
		nb, bb := float64(nCount), float64(bbCount)
		total := nb + bb
		d := nMean - bbMean
		bbVar = nVar + bbVar + nb*bb/total*d*d
		bbMean = (nb*nMean + bb*bbMean) / total
		bbCount += nCount
		newer, nCount, nMean, nVar = older, oCount, oMean, oVar
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
	h.each(h.now, func(b bucket) {
		if count == 0 {
			count, mean, variance = b.Count, b.Mean, b.Var
			return
		}
		na, nb := float64(count), float64(b.Count)
		total := na + nb
		d := mean - b.Mean
		variance = variance + b.Var + na*nb/total*d*d
		mean = (na*mean + nb*b.Mean) / total
		count += b.Count
	})
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
	out := slices.Grow(dst[:0], h.sketchL)[:h.sketchL]
	scale := 1 / math.Sqrt(float64(h.sketchL))
	for k := range out {
		out[k] = scale * (h.totalZ[k] - mean*h.totalR[k])
	}
	return out
}

// PriorSketchInto is SketchInto over the window without its newest element
// y_t, the measurement of the interval the histogram last took: Z − y_t·r_t
// and R − r_t, centred on the mean of the other elements. It returns that
// sketch and mean (0 with no other element), or nil and 0 without a
// generator. The newest bucket is always the singleton y_t — a merge never
// takes it — so this is exact arithmetic on the totals: the window a NOC
// scores y_t against must not contain y_t.
func (h *Histogram) PriorSketchInto(dst []float64) ([]float64, float64) {
	if h.sketchL == 0 || h.NumBuckets() == 0 {
		return h.SketchInto(dst), 0
	}
	y := h.window[h.newest]
	var mean float64
	if rest := h.totalCount - 1; rest > 0 {
		mean = (h.totalSum - y) / float64(rest)
	}
	row := h.cfg.Gen.Row(h.now)
	out := slices.Grow(dst[:0], h.sketchL)[:h.sketchL]
	scale := 1 / math.Sqrt(float64(h.sketchL))
	for k := range out {
		out[k] = scale * ((h.totalZ[k] - y*row[k]) - mean*(h.totalR[k]-row[k]))
	}
	return out, mean
}
