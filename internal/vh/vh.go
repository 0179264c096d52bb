// Package vh implements the per-flow state of the sketch-based streaming PCA
// algorithm (paper §IV-B): the sliding window of one flow's traffic volumes,
// with the random-projection sums Z_k = Σ x_i·r_{ik} and R_k = Σ r_{ik} over
// the window maintained beside it.
//
// A histogram ingests one traffic-volume measurement per interval, a whole
// number of bytes (CheckVolume), and keeps the window's last n elements, one
// float each: a singleton's ±1 row is regenerated from the shared seed, so
// the window and its running totals are the whole state. From the totals the
// NOC reconstructs ẑ_k = (1/√l)·(Z_k − μ·R_k), the random projection of the
// centred traffic column (eq. 17; see DESIGN.md §3.2 for the n_all typo in
// the printed formula). The paper's variance histogram (Zhang & Guan,
// PODS'07) would merge elements into buckets to hold O((1/ε)·log n) of them;
// here a merged bucket would cost a 2l-float sum row for about two elements,
// so nothing merges and every statistic is the exact window's.
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
	// ErrVolume indicates a measurement CheckVolume refuses.
	ErrVolume = errors.New("vh: volume is not a whole number below 2^53/n")
)

// CheckVolume refuses a measurement x that would make the totals of a
// window-n histogram inexact: NaN, ±Inf, a non-integer, or |x|·n ≥ 2⁵³.
func CheckVolume(x float64, n int) error {
	// NaN fails the first test and ±Inf the second. |x|·n is an integer, so
	// it rounds to 2⁵³ or more exactly when it is that large.
	if x != math.Trunc(x) || math.Abs(x)*float64(n) >= 1<<53 {
		return fmt.Errorf("%w: x = %v, n = %d", ErrVolume, x, n)
	}
	return nil
}

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

// Histogram is the per-flow window summary. It is not safe for concurrent
// use; the owning monitor serializes updates.
//
// The window is a ring of n floats, one per time of [now−n+1, now], holding
// the element of that time or NaN where no update came. The linear summary
// statistics (element count, volume sum and the sketch sums Z, R) are
// maintained incrementally, so Sketch and EstimateMean run in O(l) and O(1)
// instead of walking the window. Every element is an integer with
// |x| < 2⁵³/n (Update refuses any other), and the rows are ±1, so every
// total and every partial sum on the way to one is an integer below 2⁵³ in
// magnitude: float64 holds each exactly, and the totals equal a fresh sum
// over the window, bit for bit, in any order. Expiry subtracts what it drops.
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
// increasing t, and x must pass CheckVolume; a refused update changes
// nothing.
func (h *Histogram) Update(t int64, x float64) error {
	if err := CheckVolume(x, h.cfg.WindowLen); err != nil {
		return fmt.Errorf("t = %d: %w", t, err)
	}
	if h.started && t <= h.now {
		return fmt.Errorf("%w: t = %d, current time %d", ErrOutOfOrder, t, h.now)
	}
	h.started = true

	oldT, oldX, slide := h.expire(t - int64(h.cfg.WindowLen))
	if h.totalCount == 0 {
		h.since = t
	}
	h.newest = h.slotAfter(h.newest, t-h.now)
	h.now = t
	h.window[h.newest] = x
	h.totalCount++
	h.totalSum += x
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

// expire drops the elements of times at or before the given one and subtracts
// them from the totals. When one element left and the histogram sketches, it
// leaves that element's sketch sums to Update's one mat.SlideSums pass: it
// returns the element and slide = true.
func (h *Histogram) expire(before int64) (oldT int64, oldX float64, slide bool) {
	if h.totalCount == 0 {
		return 0, 0, false
	}
	drop := 0
	h.each(min(before, h.now), func(t int64, x float64) {
		if drop == 0 {
			oldT, oldX = t, x
		} else {
			h.addRows(t, x, -1)
		}
		drop++
		h.totalCount--
		h.totalSum -= x
		h.window[h.slotAfter(h.newest, t-h.now)] = math.NaN()
	})
	if drop > 1 {
		h.addRows(oldT, oldX, -1)
	}
	return oldT, oldX, drop == 1 && h.sketchL > 0
}

// addRows adds sign·(x·r_t, r_t) to the sketch totals, sign = ±1.
func (h *Histogram) addRows(t int64, x, sign float64) {
	if h.sketchL == 0 {
		return
	}
	row := h.cfg.Gen.Row(t)
	mat.AddScaled(h.totalZ, sign*x, row)
	mat.AddScaled(h.totalR, sign, row)
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
		variance += float64(na / total * d * d)
		mean = (float64(na*mean) + x) / total
		count++
	})
	return variance
}

// EstimateMean returns the mean of the window's elements (μ).
func (h *Histogram) EstimateMean() float64 { return Mean(h.totalSum, h.totalCount) }

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
	scale := Scale(h.sketchL)
	for k := range out {
		out[k] = Centred(h.totalZ[k], h.totalR[k], mean, scale)
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
	mean := Mean(h.totalSum-y, h.totalCount-1)
	row := h.cfg.Gen.Row(h.now)
	out := slices.Grow(dst[:0], h.sketchL)[:h.sketchL]
	scale := Scale(h.sketchL)
	for k := range out {
		out[k] = Centred(h.totalZ[k]-float64(y*row[k]), h.totalR[k]-row[k], mean, scale)
	}
	return out, mean
}

// PriorRowSumsInto writes into dst's capacity R′ = R − r_t, the ±1 row sums
// over the window PriorSketchInto summarizes, or returns nil without a
// generator. Histograms that took the same intervals return the same R′.
func (h *Histogram) PriorRowSumsInto(dst []float64) []float64 {
	if h.sketchL == 0 {
		return nil
	}
	out := append(dst[:0], h.totalR...)
	if h.totalCount > 0 {
		for k, r := range h.cfg.Gen.Row(h.now) {
			out[k] -= r
		}
	}
	return out
}

// Mean is sum/count, the mean of count elements that sum to sum, or 0 when
// count is 0.
func Mean(sum float64, count int64) float64 {
	if count <= 0 {
		return 0
	}
	return sum / float64(count)
}

// Scale is 1/√l, the factor of eq. 17 at sketch length l.
func Scale(l int) float64 { return 1 / math.Sqrt(float64(l)) }

// Centred is one entry of a sketch column, scale·(Z − μ·R). The product μ·R
// is rounded before the difference, as mat's row updates round theirs, so no
// platform fuses it: PriorSketchInto and a NOC that rebuilds a column from
// the exact sums Z′, R′ and S′/c′ a pull sent get the same bits everywhere.
func Centred(z, r, mean, scale float64) float64 { return scale * (z - float64(mean*r)) }
