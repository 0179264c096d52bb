package sketch

import (
	"fmt"
	"math"
	"slices"

	"streampca/internal/mat"
	"streampca/internal/randproj"
	"streampca/internal/vh"
)

// Delta lists the times that entered and left the window a randproj report
// summarizes since the report at its Since: Entered ascending in
// [Since, Interval], Left ascending in (Since − n, Since). Every flow of a
// monitor takes the same times (RandProj.Update feeds all or none), so one
// Delta serves all of its columns.
type Delta struct {
	Entered, Left []int64
}

// kept is K, how many of the values that left its windows a RandProj keeps
// for DeltaInto at sketch length l: ⌊l/20⌋, so a delta carries at most
// 2K ≤ l/10 volumes a flow. Pulls further apart send sums, so an alarm's
// bytes are those of a short delta or of the sums and seldom anything
// between, whichever seed drives the traffic (see DESIGN §3.2).
func kept(l int) int { return l / 20 }

// Len is the number of volumes a column of the delta carries.
func (d *Delta) Len() int { return len(d.Entered) + len(d.Left) }

// Within reports whether d's times ascend in the ranges a delta since since
// in a report of interval holds them to.
func (d *Delta) Within(since, interval int64) bool {
	return since > 0 && ascending(d.Entered, since, interval) && ascending(d.Left, 1, since-1)
}

// copyFrom makes d a copy of src in d's arrays.
func (d *Delta) copyFrom(src *Delta) {
	d.Entered = append(d.Entered[:0], src.Entered...)
	d.Left = append(d.Left[:0], src.Left...)
}

// deltaIndex returns the index of the delta equal to d, appending a copy of
// d when there is none: monitors that took the same intervals share theirs.
func (r *Snapshot) deltaIndex(d *Delta) int {
	for g := range r.Deltas {
		if slices.Equal(r.Deltas[g].Entered, d.Entered) && slices.Equal(r.Deltas[g].Left, d.Left) {
			return g
		}
	}
	g := len(r.Deltas)
	r.Deltas = resize(r.Deltas, g+1)
	r.Deltas[g].copyFrom(d)
	return g
}

// deltaOf returns the index of column i's delta, or −1 for a whole column.
func (r *Snapshot) deltaOf(i int) int {
	if i >= len(r.DeltaOf) {
		return -1
	}
	return r.DeltaOf[i]
}

// validateDeltas checks the delta columns' structure: every index names a
// delta, and every delta is at most 2K times in the ranges Delta states.
func (r *Snapshot) validateDeltas(l int) error {
	if len(r.DeltaOf) == 0 {
		return nil
	}
	if len(r.DeltaOf) != len(r.FlowIDs) || r.Since < 1 {
		return fmt.Errorf("%w: %d delta indices for %d flows since %d", ErrInput, len(r.DeltaOf), len(r.FlowIDs), r.Since)
	}
	for i, g := range r.DeltaOf {
		if g < -1 || g >= len(r.Deltas) {
			return fmt.Errorf("%w: flow %d names delta %d of %d", ErrInput, r.FlowIDs[i], g, len(r.Deltas))
		}
	}
	for _, d := range r.Deltas {
		if d.Len() > 2*kept(l) || !d.Within(r.Since, r.Interval) {
			return fmt.Errorf("%w: a delta since %d of %d entered and %d left times, out of order or range",
				ErrInput, r.Since, len(d.Entered), len(d.Left))
		}
	}
	return nil
}

// ascending reports whether ts increase strictly within [lo, hi].
func ascending(ts []int64, lo, hi int64) bool {
	for _, t := range ts {
		if t < lo || t > hi {
			return false
		}
		lo = t + 1
	}
	return true
}

// departed keeps the last K values that left a RandProj's windows: the time
// of slot j, which every flow shares, in times[j] and flow i's value in
// vals[j·w+i], in a ring whose next slot is next; held counts the slots in
// use, and forgot is the newest time the ring overwrote (math.MinInt64 for
// none).
type departed struct {
	times      []int64
	vals       []float64
	next, held int
	forgot     int64
}

// add records the values the histograms held at time t, which is leaving.
func (d *departed) add(t int64, hists []*vh.Histogram) {
	k := len(d.times)
	if k == 0 {
		d.forgot = t
		return
	}
	j := d.next
	if d.held == k {
		d.forgot = d.times[j]
	} else {
		d.held++
	}
	d.times[j] = t
	for i, h := range hists {
		d.vals[j*len(hists)+i], _ = h.At(t)
	}
	d.next = (j + 1) % k
}

// DeltaInto writes into dst what SnapshotInto would, as delta columns against
// the snapshot this sketcher took at interval since, which the requester
// holds: the times that entered and left the window since then, and each
// flow's volumes at them. It reports false, dst's contents unspecified, when
// it cannot: no update came at since, since is a window or more back, or
// since's window reaches before this sketcher's first update (it cannot be
// sure it summarized the requester's copy); a time that left since then is
// no longer kept (the last K are, see kept); or the delta would carry more
// than 2K volumes a flow, which skipped intervals make possible.
func (m *RandProj) DeltaInto(dst *Snapshot, since int64) bool {
	n := int64(m.window)
	if m.start == 0 || since < m.start+n-1 || since > m.now || since <= m.now-n || m.left.forgot > since-n {
		return false
	}
	if _, ok := m.hists[0].At(since); !ok {
		return false
	}
	w := len(m.hists)
	*dst = Snapshot{
		Interval: m.now,
		FlowIDs:  append(dst.FlowIDs[:0], m.flowIDs...),
		Sketches: resizeRows(dst.Sketches, w),
		Means:    resize(dst.Means, w),
		Counts:   resize(dst.Counts, w),
		RowSums:  dst.RowSums[:0],
		RowSumOf: dst.RowSumOf[:0],
		Family:   FamilyRandProj,
		FDRows:   dst.FDRows[:0],
		Since:    since,
		Deltas:   resize(dst.Deltas, 1),
		DeltaOf:  resize(dst.DeltaOf, w),
	}
	clear(dst.Means)
	clear(dst.Counts)
	clear(dst.DeltaOf)
	d := &dst.Deltas[0]
	d.Entered, d.Left, m.slots = d.Entered[:0], d.Left[:0], m.slots[:0]
	for t := since; t < m.now; t++ {
		if _, ok := m.hists[0].At(t); ok {
			d.Entered = append(d.Entered, t)
		}
	}
	k := len(m.left.times)
	for c := range m.left.held {
		j := (m.left.next - m.left.held + c + k) % k
		if t := m.left.times[j]; t > since-n && t < since {
			d.Left = append(d.Left, t)
			m.slots = append(m.slots, j)
		}
	}
	if d.Len() > 2*len(m.left.times) {
		return false
	}
	for i, h := range m.hists {
		v := dst.Sketches[i][:0]
		for _, t := range d.Entered {
			x, _ := h.At(t)
			v = append(v, x)
		}
		for _, j := range m.slots {
			v = append(v, m.left.vals[j*w+i])
		}
		dst.Sketches[i] = v
	}
	return true
}

// Applier turns a pull's delta columns back into whole ones at the side
// that asked for them (see Apply). It keeps the scratch that takes and is
// not safe for concurrent use.
type Applier struct {
	gen    *randproj.Generator
	window int64
	// in and out are the rows of the times a step of Apply moves a delta's
	// columns on by; vols the delta columns' volumes, one after another;
	// cols those columns; pos the base column of each flow, −1 for none.
	in, out []float64
	vols    []float64
	cols    []applied
	pos     []int
	// slid maps a delta and a base R′ to the row of rep.RowSums it moved to.
	slid []slidRows
}

type slidRows struct{ delta, from, to int }

// applied is a delta column Apply moves on: its index in the report, its
// base column, where its volumes start in vols, its volume sum S′ and the
// R′ it moves along with it, if any.
type applied struct {
	i, b, off int
	sum       float64
	r         slideTo
}

// NewApplier returns an Applier for windows of n intervals under gen, the
// projection the registrants share, with its scratch sized for m flows.
func NewApplier(gen *randproj.Generator, windowLen, m int) *Applier {
	l := gen.SketchLen()
	pos := make([]int, m)
	for f := range pos {
		pos[f] = -1
	}
	return &Applier{
		gen: gen, window: int64(windowLen), in: make([]float64, l), out: make([]float64, l),
		vols: make([]float64, 0, 2*kept(l)*m), cols: make([]applied, 0, m), pos: pos,
	}
}

// Apply rewrites the delta columns of rep, a validated report, as the whole
// columns they stand for, against base, the whole report from the same
// registrant at interval rep.Since. For each flow it recovers the sums under
// base's column, Z′ (vh.Sums) and S′ = μ·c′, moves them, c′ and R′ on by
// the volumes that entered and left, and centres them again. Every sum is an
// integer below 2⁵³, so each column gets the bits the registrant's own
// SnapshotInto gives it.
//
// A delta since another interval than base's, a time before rep.Since's
// window, a flow base has no column or no R′ for, a volume vh.CheckVolume
// refuses at n, a base column whose sums do not give its bits
// (vh.ErrNotSums), or a count outside [0, n) is an error wrapping ErrInput,
// and leaves rep's columns,
// means, counts and R′ as they were.
func (a *Applier) Apply(rep, base *Snapshot) error {
	if len(rep.DeltaOf) == 0 {
		return nil
	}
	if base == nil || base.Family != FamilyRandProj || len(base.DeltaOf) != 0 || base.Interval != rep.Since {
		return fmt.Errorf("%w: a delta since %d, and no whole report of that interval to apply it to", ErrInput, rep.Since)
	}
	for _, f := range base.FlowIDs {
		for f >= len(a.pos) {
			a.pos = append(a.pos, -1)
		}
	}
	for j, f := range base.FlowIDs {
		a.pos[f] = j
	}
	defer func() {
		for _, f := range base.FlowIDs {
			a.pos[f] = -1
		}
	}()
	if err := a.check(rep, base); err != nil {
		return err
	}
	// Each column's base sums recovered in its place, the volumes set aside
	// (check); a base column they do not give puts every volume back.
	// Columns decoded with no room for l sums take one array between them.
	l, short := a.gen.SketchLen(), 0
	for _, col := range a.cols {
		if cap(rep.Sketches[col.i]) < l {
			short++
		}
	}
	room := make([]float64, short*l)
	for c := range a.cols {
		col := &a.cols[c]
		z := rep.Sketches[col.i][:0]
		if cap(z) < l {
			z, room = room[:0:l], room[l:]
		}
		z = z[:l]
		rep.Sketches[col.i] = z
		if err := vh.Sums(z, base.Sketches[col.b], base.RowSum(col.b), base.Means[col.b]); err != nil {
			for _, col := range a.cols[:c+1] {
				n := rep.Deltas[rep.DeltaOf[col.i]].Len()
				rep.Sketches[col.i] = append(rep.Sketches[col.i][:0], a.vols[col.off:col.off+n]...)
			}
			return fmt.Errorf("%w: flow %d's base column: %w", ErrInput, rep.FlowIDs[col.i], err)
		}
	}
	if len(rep.RowSumOf) == 0 {
		rep.RowSumOf = resize(rep.RowSumOf, len(rep.FlowIDs))
		for i := range rep.RowSumOf {
			rep.RowSumOf[i] = -1
		}
	}
	a.slid = a.slid[:0]
	for c := range a.cols {
		col := &a.cols[c]
		col.r = a.rowsFor(rep, base, rep.DeltaOf[col.i], col.b)
	}
	// Then every column moved on one time, or a time leaving and one
	// entering, at a time: see slide.
	for g := range rep.Deltas {
		d := &rep.Deltas[g]
		e, n := len(d.Entered), d.Len()
		for j := range max(e, n-e) {
			if j < e {
				a.gen.RowInto(d.Entered[j], a.in)
			}
			if j < n-e {
				a.gen.RowInto(d.Left[j], a.out)
			}
			for _, col := range a.cols {
				if rep.DeltaOf[col.i] == g {
					a.slide(rep.Sketches[col.i], col.r.slide, a.vols[col.off:col.off+n], e, j)
				}
			}
		}
	}
	scale := vh.Scale(l)
	for _, col := range a.cols {
		d := &rep.Deltas[rep.DeltaOf[col.i]]
		z, rs := rep.Sketches[col.i], rep.RowSums[col.r.to]
		count := base.Counts[col.b] + int64(2*len(d.Entered)-d.Len())
		mean := vh.Mean(col.sum, count)
		for k := range z {
			z[k] = vh.Centred(z[k], rs[k], mean, scale)
		}
		rep.Means[col.i], rep.Counts[col.i], rep.RowSumOf[col.i] = mean, count, col.r.to
	}
	rep.Since, rep.Deltas, rep.DeltaOf = 0, rep.Deltas[:0], rep.DeltaOf[:0]
	return nil
}

// slide moves a column's sums z, and r when it is not nil, on by step j of
// vols, the first e entering at the rows a.in and the rest leaving at a.out.
// Like moveSum it pairs each leaving element with an entering one while both
// last, so every partial sum is one over at most n − 1 elements, like the
// window's totals, and as exact (a pair needs n ≥ 2, where mat.SlideSums
// slides z alone exactly).
func (a *Applier) slide(z, r, vols []float64, e, j int) {
	left := len(vols) - e
	switch {
	case j < e && j < left:
		mat.SlideSums(z, r, a.out, a.in, -vols[e+j], vols[j])
	case j < e:
		addRow(z, r, a.in, vols[j], 1)
	default:
		addRow(z, r, a.out, -vols[e+j], -1)
	}
}

// moveSum returns the volume sum moved on by vols, the first e entering.
func moveSum(sum float64, vols []float64, e int) float64 {
	left := len(vols) - e
	for j := range max(e, left) {
		if j < left {
			sum -= vols[e+j]
		}
		if j < e {
			sum += vols[j]
		}
	}
	return sum
}

// addRow adds x·row to z and sign·row to r, unless r is nil.
func addRow(z, r, row []float64, x, sign float64) {
	mat.AddScaled(z, x, row)
	if r != nil {
		mat.AddScaled(r, sign, row)
	}
}

// slideTo is where a column's R′ goes: the row of rep.RowSums it ends in,
// and that row again while it still has to be moved on with the column.
type slideTo struct {
	to    int
	slide []float64
}

// rowsFor returns the row of rep.RowSums that base column b's R′ moves to
// under delta g: a copy of it, to be moved on with the first column that
// asks, and the same row, already moved, for every later one.
func (a *Applier) rowsFor(rep, base *Snapshot, g, b int) slideTo {
	from := base.RowSumOf[b]
	for _, s := range a.slid {
		if s.delta == g && s.from == from {
			return slideTo{to: s.to}
		}
	}
	to := len(rep.RowSums)
	rep.RowSums = resizeRows(rep.RowSums, to+1)
	rep.RowSums[to] = append(rep.RowSums[to][:0], base.RowSums[from]...)
	a.slid = append(a.slid, slidRows{g, from, to})
	return slideTo{to: to, slide: rep.RowSums[to]}
}

// check makes Apply's checks but the base columns' sums, and lists the
// delta columns in a.cols with their volumes copied to a.vols, their base
// columns and their S′ moved on.
func (a *Applier) check(rep, base *Snapshot) error {
	for _, d := range rep.Deltas {
		if len(d.Left) > 0 && d.Left[0] <= rep.Since-a.window {
			return fmt.Errorf("%w: a delta since %d names time %d, before that window of %d", ErrInput, rep.Since, d.Left[0], a.window)
		}
	}
	a.cols, a.vols = a.cols[:0], a.vols[:0]
	for i, f := range rep.FlowIDs {
		g := rep.DeltaOf[i]
		if g < 0 {
			continue
		}
		b := -1
		if f < len(a.pos) {
			b = a.pos[f]
		}
		if b < 0 || base.RowSum(b) == nil {
			return fmt.Errorf("%w: flow %d: a delta column with no whole column and R′ to apply it to", ErrInput, f)
		}
		mean, count := base.Means[b], base.Counts[b]
		sum := math.Round(mean * float64(count))
		if count < 0 || !(math.Abs(sum) < 1<<53) || math.Float64bits(vh.Mean(sum, count)) != math.Float64bits(mean) {
			return fmt.Errorf("%w: flow %d's base mean: %w", ErrInput, f, vh.ErrNotSums)
		}
		for _, x := range rep.Sketches[i] {
			if err := vh.CheckVolume(x, int(a.window)); err != nil {
				return fmt.Errorf("%w: flow %d: %w", ErrInput, f, err)
			}
		}
		d := &rep.Deltas[g]
		sum = moveSum(sum, rep.Sketches[i], len(d.Entered))
		count += int64(2*len(d.Entered) - d.Len())
		if count < 0 || count >= a.window || !(math.Abs(sum) < 1<<53) {
			return fmt.Errorf("%w: flow %d: the delta leaves %d elements summing to %v", ErrInput, f, count, sum)
		}
		a.cols = append(a.cols, applied{i: i, b: b, off: len(a.vols), sum: sum})
		a.vols = append(a.vols, rep.Sketches[i]...)
	}
	return nil
}
