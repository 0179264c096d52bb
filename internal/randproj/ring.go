package randproj

import (
	"fmt"
	"math"
)

// Ring holds the projection rows r_{t,·} of the last n+1 intervals, so that
// every variance histogram of a monitor reads one copy of a row instead of
// each storing its own: the paper's "n shared generators" (§IV-B) made
// literal. Row t lives in slot t mod (n+1), tagged with t, as its ⌈l/64⌉
// sign words: 2.3 KB at n = 144, l = 100.
//
// A histogram reads rows as floats, so the ring keeps the float expansions
// of the two rows read last: in steady state those are the interval entering
// every histogram's window and the one leaving it, each expanded once per
// interval however many histograms read it. Since ±1·y is exact, a sum over
// an expanded row has the bits of one over a stored float row.
//
// The ring is state sized by the window, not a cache with a knob: a live
// window element is at most n−1 intervals old, so its slot cannot have been
// taken by a newer interval and its row is always there. A read that does
// miss — an element being expired after a time gap, whose slot the new
// interval has just taken — regenerates the row from the generator, so a
// miss costs time and never correctness.
//
// A Ring is not safe for concurrent use; the sketcher that owns it
// serializes updates.
type Ring struct {
	gen   *Generator
	tags  []int64
	signs []uint64 // len(tags) rows of gen.words
	// miss receives the sign words regenerated for an interval older than
	// the one holding its slot.
	miss []uint64
	// rows[i] is the expansion of row rowTags[i] once full[i]; next is the
	// one the next expansion replaces, the one read less recently.
	rows    [2][]float64
	rowTags [2]int64
	full    [2]bool
	next    int
}

// NewRing returns an empty ring over g for windows of up to windowLen
// intervals.
func NewRing(g *Generator, windowLen int) (*Ring, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil generator", ErrConfig)
	}
	if windowLen < 1 {
		return nil, fmt.Errorf("%w: ring window length %d", ErrConfig, windowLen)
	}
	slots := windowLen + 1
	r := &Ring{
		gen:   g,
		tags:  make([]int64, slots),
		signs: make([]uint64, slots*g.words),
		miss:  make([]uint64, g.words),
		rows:  [2][]float64{make([]float64, g.sketchLen), make([]float64, g.sketchLen)},
	}
	// An empty slot carries the oldest possible tag that does not map to it,
	// so it matches no interval and yields to any.
	for i := range r.tags {
		r.tags[i] = math.MinInt64
		if r.slot(math.MinInt64) == i {
			r.tags[i]++
		}
	}
	return r, nil
}

// SketchLen returns l, the length of every row.
func (r *Ring) SketchLen() int { return r.gen.sketchLen }

// WindowLen returns the longest window the ring serves.
func (r *Ring) WindowLen() int { return len(r.tags) - 1 }

func (r *Ring) slot(t int64) int {
	s := int64(len(r.tags))
	return int(((t % s) + s) % s)
}

// Row returns r_{t,·}. The result is read-only; it stays valid while at most
// one other row is read.
func (r *Ring) Row(t int64) []float64 {
	for i := range r.rows {
		if r.full[i] && r.rowTags[i] == t {
			// Least recently read goes first: the row just returned must
			// survive the next expansion.
			r.next = i ^ 1
			return r.rows[i]
		}
	}
	i := r.next
	r.next ^= 1
	row := r.rows[i]
	words := r.words(t)
	for b, w := range words {
		expand(row[b*64:min(len(row), (b+1)*64)], w)
	}
	r.rowTags[i], r.full[i] = t, true
	return row
}

// words returns the sign words of row t. The newest interval seen for a slot
// keeps it; an older one is regenerated into scratch words.
func (r *Ring) words(t int64) []uint64 {
	n := r.gen.words
	i := r.slot(t)
	words := r.signs[i*n : (i+1)*n : (i+1)*n]
	switch tag := r.tags[i]; {
	case tag == t:
	case tag < t:
		r.gen.signsInto(t, words)
		r.tags[i] = t
	default:
		words = r.miss
		r.gen.signsInto(t, words)
	}
	return words
}
