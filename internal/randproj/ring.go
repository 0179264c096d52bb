package randproj

import (
	"fmt"
	"math"
)

// Ring holds the projection rows r_{t,·} of the last n+1 intervals, so that
// every variance histogram of a monitor reads one copy of a row instead of
// each storing its own: the paper's "n shared generators" (§IV-B) made
// literal. Row t lives in slot t mod (n+1), tagged with t.
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
	gen  *Generator
	tags []int64
	rows []float64 // len(tags) rows of l
	// miss receives a row regenerated for an interval older than the one
	// holding its slot.
	miss []float64
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
		gen:  g,
		tags: make([]int64, slots),
		rows: make([]float64, slots*g.sketchLen),
		miss: make([]float64, g.sketchLen),
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

// Row returns r_{t,·}. The newest interval seen for a slot keeps it; an older
// one is regenerated into a scratch row. The result is read-only and valid
// until the next call.
func (r *Ring) Row(t int64) []float64 {
	l := r.gen.sketchLen
	i := r.slot(t)
	row := r.rows[i*l : (i+1)*l : (i+1)*l]
	switch tag := r.tags[i]; {
	case tag == t:
	case tag < t:
		r.gen.RowInto(t, row)
		r.tags[i] = t
	default:
		row = r.miss
		r.gen.RowInto(t, row)
	}
	return row
}
