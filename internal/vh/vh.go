// Package vh implements the per-flow state of the sketch-based streaming PCA
// algorithm (paper §IV-B): the sliding window of one flow's traffic volumes,
// with the random-projection sums Z_k = Σ x_i·r_{ik} and R_k = Σ r_{ik} over
// the window maintained beside it.
//
// A histogram ingests one traffic-volume measurement per interval and keeps
// the window's last n elements, one float each: a singleton's ±1 row is
// regenerated from the shared seed, so the window and its running totals are
// the whole state. From the totals the NOC reconstructs
// ẑ_k = (1/√l)·(Z_k − μ·R_k), the random projection of the centred traffic
// column (eq. 17; see DESIGN.md §3.2 for the n_all typo in the printed
// formula). The paper's variance histogram (Zhang & Guan, PODS'07) would merge
// elements into buckets to hold O((1/ε)·log n) of them; here a merged bucket
// would cost a 2l-float sum row for about two elements, so nothing merges and
// every statistic is the exact window's.
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

// Config parameterizes a Histogram.
type Config struct {
	// WindowLen is n, the sliding-window length in intervals. Must be ≥ 1.
	WindowLen int
	// Gen supplies the shared random rows r_{t,·}; the histograms of one
	// monitor share one ring, which must serve windows of WindowLen. May be
	// nil, in which case the histogram maintains only the window moments
	// (no sketch).
	Gen *randproj.Ring
}

// onePass lets Update slide the sketch totals in one mat.SlideSums pass when
// one element leaves, one enters and no rebase is due. Only tests clear it,
// to run the same stream through the expiry and insertion passes it replaces.
var onePass = true

// cliffFactor is how far the window sum may fall below its peak since the
// last rebase before expiry rebases at once; see Histogram.
const cliffFactor = 64

// Histogram is the per-flow window summary. It is not safe for concurrent
// use; the owning monitor serializes updates.
//
// The window is a ring of n floats, one per time of [now−n+1, now], holding
// the element of that time or NaN where no update came. The linear summary
// statistics (element count, volume sum and the sketch sums Z, R) are
// maintained incrementally, so Sketch and EstimateMean run in O(l) and O(1)
// instead of walking the window. Expiry subtracts what it drops, which costs
// O(l) but leaves rounding residue behind; rebaseTotals re-sums the window
// to shed it
//
//   - once at least as many updates as there are live elements have passed
//     since the last rebase (amortised O(l) per update), at the next expiry;
//   - at once when the window sum has fallen more than cliffFactor below its
//     peak since the last rebase, because residue is sized by the totals it
//     was rounded in, not by what is left;
//   - trivially when the window empties.
//
// Error bound. Let B be the elements the last rebase summed and P the updates
// since (P ≤ B + n: the next expiry is at most n updates away), u = 2⁻⁵³.
// The rebase rounds B times and every update since at most twice, each time
// by at most u times the running total. For the non-negative volumes a
// monitor feeds, |totalZ_k| ≤ max|r|·totalSum and the second rule keeps the
// running totalSum within cliffFactor of the present one, so at every step
//
//	|totalSum − Σ x_i|         ≤ (B + 2P)·u·cliffFactor·totalSum
//	|totalZ_k − Σ x_i·r_{ik}|  ≤ (B + 2P)·u·cliffFactor·totalSum·max|r|
//	|totalR_k − Σ r_{ik}|      ≤ (B + 2P)·u·totalCount·max|r|
//
// which is under 5n·u·cliffFactor ≈ 1.4e−10 relative at n = 4032. Signed
// inputs that cancel inside the window can hide their mass from |totalSum|;
// their residue is sized by that mass and lasts until the next scheduled
// rebase.
type Histogram struct {
	cfg     Config
	sketchL int
	// window[τ mod n] is the element of time τ ∈ [now−n+1, now], or NaN
	// when no update came at τ; newest is the slot of now.
	window []float64
	newest int
	// since is the time of the first update after the histogram was last
	// empty: no element is older, so the walks start there when it is
	// inside the window.
	since   int64
	now     int64
	started bool

	// Incrementally maintained linear totals over the window.
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

// Count returns the number of elements in the window.
func (h *Histogram) Count() int64 { return h.totalCount }

// Update ingests the measurement x for interval t: the elements that left
// the window [t−n+1, t] expire and x enters. Updates must have strictly
// increasing t.
func (h *Histogram) Update(t int64, x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("%w: x = %v at t = %d", ErrNotFinite, x, t)
	}
	if h.started && t <= h.now {
		return fmt.Errorf("%w: t = %d, current time %d", ErrOutOfOrder, t, h.now)
	}
	h.started = true
	h.sinceRebase++

	oldT, oldX, slide := h.expire(t - int64(h.cfg.WindowLen))
	if h.totalCount == 0 {
		h.since = t
	}
	h.newest = h.slotAfter(h.newest, t-h.now)
	h.now = t
	h.window[h.newest] = x
	h.totalCount++
	h.totalSum += x
	h.peakSum = math.Max(h.peakSum, math.Abs(h.totalSum))
	if slide {
		// The ring keeps both rows valid together.
		in := h.cfg.Gen.Row(t)
		mat.SlideSums(h.totalZ, h.totalR, h.cfg.Gen.Row(oldT), in, -oldX, x)
	} else {
		h.addRows(t, x, 1)
	}
	return nil
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

// each calls f on the elements of times up to end, oldest first.
func (h *Histogram) each(end int64, f func(t int64, x float64)) {
	t := max(h.now-int64(len(h.window))+1, h.since)
	for i := h.slotAfter(h.newest, t-h.now); t <= end; t++ {
		if x := h.window[i]; !math.IsNaN(x) {
			f(t, x)
		}
		if i++; i == len(h.window) {
			i = 0
		}
	}
}

// expire drops the elements of times at or before the given one, subtracts
// them from the totals and rebases when a rule of the type comment says so.
// When one element left and no rebase is due, it leaves that element's sketch
// sums to Update's one pass: it returns the element and slide = true.
func (h *Histogram) expire(before int64) (oldT int64, oldX float64, slide bool) {
	live := h.totalCount
	if live == 0 {
		return 0, 0, false
	}
	end := min(before, h.now)
	var drop int64
	h.each(end, func(t int64, x float64) {
		if drop == 0 {
			oldT, oldX = t, x
		}
		drop++
		h.totalCount--
		h.totalSum -= x
	})
	if drop == 0 {
		return 0, 0, false
	}
	h.peakSum = math.Max(h.peakSum, math.Abs(h.totalSum))
	// More updates than survivors: with the element this update adds, at
	// most one scheduled rebase per Count() updates.
	scheduled := int64(h.sinceRebase) > live-drop
	if scheduled {
		h.scheduledRebases++
	}
	rebase := scheduled || drop == live || h.peakSum > cliffFactor*math.Abs(h.totalSum)
	slide = !rebase && onePass && drop == 1 && h.sketchL > 0
	h.each(end, func(t int64, x float64) {
		if !rebase && !slide {
			h.addRows(t, x, -1)
		}
		h.window[h.slotAfter(h.newest, t-h.now)] = math.NaN()
	})
	if rebase {
		h.rebaseTotals()
		return 0, 0, false
	}
	return oldT, oldX, slide
}

// addRows adds sign·(x·r_t, r_t) to the sketch totals, sign = ±1. mat's row
// updates round the products x·r before they add them, so the totals do not
// depend on whether the platform fuses them.
func (h *Histogram) addRows(t int64, x, sign float64) {
	if h.sketchL == 0 {
		return
	}
	row := h.cfg.Gen.Row(t)
	mat.AddScaled(h.totalZ, sign*x, row)
	mat.AddScaled(h.totalR, sign, row)
}

// rebaseTotals recomputes totalCount/totalSum/totalZ/totalR from the window,
// O(n·l).
func (h *Histogram) rebaseTotals() {
	h.totalCount = 0
	h.totalSum = 0
	clear(h.totalZ)
	clear(h.totalR)
	h.each(h.now, func(t int64, x float64) {
		h.totalCount++
		h.totalSum += x
		h.addRows(t, x, 1)
	})
	h.sinceRebase = 0
	h.peakSum = math.Abs(h.totalSum)
}

// EstimateVariance returns V, the window's sum of squared deviations (eq. 10).
// It folds count, mean and variance across the window one element at a time
// (eqs. 11–13 with a singleton as the newer operand) and never touches the
// sketch totals, so it is allocation-free on the per-interval monitor path.
func (h *Histogram) EstimateVariance() float64 {
	var count int64
	var mean, variance float64
	h.each(h.now, func(_ int64, x float64) {
		if count == 0 {
			count, mean = 1, x
			return
		}
		na := float64(count)
		total := na + 1
		d := mean - x
		variance += na / total * d * d
		mean = (na*mean + x) / total
		count++
	})
	return variance
}

// EstimateMean returns the mean of the window's elements (μ).
func (h *Histogram) EstimateMean() float64 {
	if h.totalCount == 0 {
		return 0
	}
	return h.totalSum / float64(h.totalCount)
}

// Sketch returns ẑ_k = (1/√l)·(Z_k − μ·R_k) for k = 0…l−1 (eq. 17,
// corrected form), or nil when the histogram runs without a generator. It
// runs in O(l) off the incrementally maintained totals.
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
// generator. The window a NOC scores y_t against must not contain y_t.
func (h *Histogram) PriorSketchInto(dst []float64) ([]float64, float64) {
	if h.sketchL == 0 || h.totalCount == 0 {
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
