package tier

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"streampca/internal/core"
	"streampca/internal/sketch"
	"streampca/internal/trace"
	"streampca/internal/transport"
)

// Pull is the result of one lazy sketch pull (§IV-C): the finished answer,
// cache substitutions included.
type Pull struct {
	// Reports are the validated answers plus what DegradedPolicy filled from
	// the tier's cache; their flow sets are pairwise disjoint.
	Reports []core.SketchReport
	// Interval is the newest interval among the answers, or among the cached
	// reports when nothing answered.
	Interval int64
	// Rounds counts the rounds attempted.
	Rounds int
	// Degraded/Stale sum the degradation the answers declared (a mid tier
	// that served part of its merge from cache tags its response) and this
	// tier's own fill; Filled counts the flows of the latter.
	Degraded bool
	Stale    int
	Filled   int
	// Forms counts the answers' columns by the form they crossed in.
	Forms transport.ColumnForms

	// relay and since are Relay's: delta columns stay unapplied, and since
	// is the interval the tier above asked since.
	relay bool
	since int64
	by    []string // per flow: ID of the report covering it, "" = uncovered
	miss  []int    // Uncovered's list
	// held are the randproj responses Reports were decoded into, handed
	// back by Release.
	held []response
}

// fromCache marks in Pull.by the flows a randproj fill covered.
const fromCache = "(cache)"

// Pull asks the registrants for their sketches: up to 1+Pull.Retries rounds
// with capped, jittered exponential backoff (PullPolicy), each asking only
// the owners of flows still uncovered (partial results are kept across rounds) under a
// fresh request ID, so a late answer to an earlier round is dropped, never
// misattributed. Under DegradedPolicy what the rounds left uncovered is then
// filled from cache (see fill). sp, when non-nil, receives retry,
// per-registrant failure and breaker events; tc rides on the requests so
// serving spans parent under it.
//
// A randproj tier not under DegradedPolicy asks each registrant for a delta
// against the last answer it keeps from it (link), and applies the delta
// columns that come back (sketch.Applier), so every report is whole. An
// answer that fails to fold, a delta that does not apply among them, drops
// that copy: the retry asks for whole columns.
func (d *Downstream) Pull(sp *trace.Span, tc *transport.TraceContext) *Pull {
	return d.pull(sp, tc, false, 0)
}

// Relay is Pull for a tier that answers a pull from above asking since the
// given interval (0: whole columns). It asks a registrant for the delta
// since that interval only when the registrant's answer in this tier's last
// released pull was of that interval, so the copy above holds what the delta
// applies to, and it leaves delta columns unapplied in Reports, for the tier
// above to apply.
func (d *Downstream) Relay(since int64, tc *transport.TraceContext) *Pull {
	return d.pull(nil, tc, true, since)
}

func (d *Downstream) pull(sp *trace.Span, tc *transport.TraceContext, relay bool, since int64) *Pull {
	d.mu.Lock()
	p := d.free
	d.free = nil
	d.mu.Unlock()
	if p == nil {
		p = &Pull{by: make([]string, d.cfg.NumFlows)}
	}
	p.relay, p.since = relay, since
	backoff := d.cfg.Pull.Backoff
	for round := 0; round <= max(0, d.cfg.Pull.Retries); round++ {
		miss := len(d.Uncovered(p))
		if miss == 0 {
			break
		}
		if round > 0 {
			d.cfg.Metrics.PullRetries.Inc()
			pause := backoff
			if j := int64(backoff / 2); j > 0 {
				d.mu.Lock()
				pause += time.Duration(d.rng.Int63n(j))
				d.mu.Unlock()
			}
			sp.Event("retry",
				trace.I("round", int64(round)),
				trace.I("missing_flows", int64(miss)),
				trace.F("backoff_ms", float64(pause)/float64(time.Millisecond)))
			d.log.Info("sketch pull retry", "round", round, "missing_flows", miss)
			select {
			case <-time.After(pause):
			case <-d.done:
			}
			if backoff *= 2; backoff > d.cfg.Pull.BackoffMax {
				backoff = d.cfg.Pull.BackoffMax
			}
		}
		p.Rounds = round + 1
		if d.round(p, sp, tc) == 0 {
			// Nothing askable: the uncovered flows are unowned or their
			// owners breaker-open or unreachable. More rounds cannot help.
			break
		}
	}
	if d.cfg.Degraded.Enabled {
		d.fill(p)
	}
	return p
}

// Release hands the tier back p and the arrays its randproj answers were
// decoded into: each registrant's answer becomes the last one kept from it,
// which the next request names as Since, and the next Pull reuses p. Call it
// once nothing reads p any more: after the model is built or the merge sent.
// A pull never released costs allocation, not correctness.
func (d *Downstream) Release(p *Pull) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, h := range p.held {
		if k := d.links[h.conn]; k != nil {
			if k.spare == nil {
				k.spare = k.last
			}
			k.last, k.at = h.r, h.r.Report.Interval
		}
	}
	clear(p.by)
	clear(p.Reports)
	clear(p.held)
	*p = Pull{by: p.by, miss: p.miss[:0], Reports: p.Reports[:0], held: p.held[:0]}
	d.free = p
}

// Uncovered lists the flows p still owes: required or owned by a live
// registrant, and not covered by a report. The list is p's, valid until the
// next call or Release.
func (d *Downstream) Uncovered(p *Pull) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	p.miss = p.miss[:0]
	for f, id := range p.by {
		if id == "" && (d.cfg.RequireAll || d.owner[f] != nil) {
			p.miss = append(p.miss, f)
		}
	}
	return p.miss
}

// owes reports whether any of flows is still uncovered.
func (p *Pull) owes(flows []int) bool {
	for _, f := range flows {
		if p.by[f] == "" {
			return true
		}
	}
	return false
}

// fill substitutes cached sketches for the flows the rounds left uncovered,
// at the granularity the family allows, each only while DegradedPolicy calls
// it fresh against the reference point: the newest interval a volume report
// or an answer of this pull has named. A report from an earlier pull never
// moves it, so a registrant that raced ahead and vanished cannot vouch for
// its own cache entry.
//
//   - randproj: a flow's column depends on its own window alone (§IV-B), so
//     each uncovered flow takes a copy of the newest cached column of that
//     flow, whoever reported it — also one a later, smaller report left out.
//     The columns become one report.
//   - FD: a block does not split, so a registrant's last report is usable
//     only whole — every flow it names still uncovered and not owned by a
//     live registrant of another identity (a partly superseded block would
//     double-count). Candidates are taken in ID order for determinism.
func (d *Downstream) fill(p *Pull) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ref := max(d.lastInterval, p.Interval)
	var newest int64
	if d.cfg.Family == sketch.FamilyFD {
		ids := make([]string, 0, len(d.cache))
		for id := range d.cache {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			snap := d.cache[id]
			usable := len(snap.FlowIDs) > 0 && d.cfg.Degraded.Fresh(ref, snap.Interval)
			for _, f := range snap.FlowIDs {
				if p.by[f] != "" || (d.owner[f] != nil && d.owner[f].id != id) {
					usable = false
				}
			}
			if !usable {
				continue
			}
			for _, f := range snap.FlowIDs {
				p.by[f] = id
			}
			p.Reports = append(p.Reports, snap)
			p.Filled += len(snap.FlowIDs)
			newest = max(newest, snap.Interval)
		}
	} else {
		cached := core.SketchReport{Family: sketch.FamilyRandProj}
		var from []*rowCopy
		for f, c := range d.cols {
			if p.by[f] != "" || c.sketch == nil || !d.cfg.Degraded.Fresh(ref, c.at) {
				continue
			}
			p.by[f] = fromCache
			cached.FlowIDs = append(cached.FlowIDs, f)
			cached.Sketches = append(cached.Sketches, slices.Clone(c.sketch))
			cached.Means = append(cached.Means, c.mean)
			cached.Counts = append(cached.Counts, c.count)
			cached.Interval = max(cached.Interval, c.at)
			cached.RowSumOf = append(cached.RowSumOf, rowSumIndex(&cached, &from, c.rows))
		}
		if len(cached.RowSums) == 0 {
			cached.RowSumOf = nil
		}
		if len(cached.FlowIDs) > 0 {
			p.Reports = append(p.Reports, cached)
			p.Filled = len(cached.FlowIDs)
			newest = cached.Interval
		}
	}
	if p.Filled > 0 {
		p.Degraded = true
		p.Stale += p.Filled
		if p.Interval == 0 {
			p.Interval = newest
		}
	}
}

// pullRound is one pull round's meeting point with the connection readers:
// the registrants it awaits, the channel routeResponse delivers their
// answers on, its response timer and the request it sends. Rounds are reused
// (takeRoundLocked, retire); Pulls running at once on one Downstream (an
// aggregator's overlapping upstream requests) each take their own.
type pullRound struct {
	ch       chan response
	awaiting map[*transport.Conn]asked
	timer    *time.Timer
	req      transport.SketchRequest
}

// asked is a registrant a round awaits: its ID and the Since it was asked.
type asked struct {
	id    string
	since int64
}

// takeRoundLocked returns a retired round, or a new one whose timer is
// stopped. Caller holds d.mu.
func (d *Downstream) takeRoundLocked() *pullRound {
	if n := len(d.idle); n > 0 {
		rd := d.idle[n-1]
		d.idle = d.idle[:n-1]
		return rd
	}
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &pullRound{awaiting: make(map[*transport.Conn]asked), timer: t}
}

// retire ends rd: its request ID stops routing, its timer is stopped and
// drained, and the answers that arrived too late to be read are handed back
// as their registrants' spares, so none reaches a later round that reuses rd.
// It is kept for reuse while fewer than maxFree are.
func (d *Downstream) retire(rd *pullRound) {
	if !rd.timer.Stop() {
		select {
		case <-rd.timer.C:
		default:
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.rounds, rd.req.RequestID)
	rd.req.RequestID = 0
	for len(rd.ch) > 0 {
		in := <-rd.ch
		d.keepLocked(in.conn, in.r)
	}
	clear(rd.awaiting)
	if len(d.idle) < maxFree {
		d.idle = append(d.idle, rd)
	}
}

// round issues one pull round and folds every validated answer that arrives
// before Pull.Timeout into p. A failed send or bad report from one registrant
// never aborts the round — it is charged to that registrant's breaker and the
// others proceed. Returns the number of registrants asked.
func (d *Downstream) round(p *Pull, sp *trace.Span, tc *transport.TraceContext) int {
	now := time.Now()
	d.mu.Lock()
	rd := d.takeRoundLocked()
	var skipped []string
	for c, e := range d.regs {
		if !p.owes(e.flows) {
			continue
		}
		if d.excludedLocked(e.id, now) {
			skipped = append(skipped, e.id)
			continue
		}
		rd.awaiting[c] = asked{e.id, d.sinceLocked(c, p)}
	}
	if len(rd.awaiting) > 0 {
		d.nextReq++
		rd.req.RequestID = d.nextReq
		if cap(rd.ch) < len(rd.awaiting) {
			rd.ch = make(chan response, len(rd.awaiting))
		}
		d.rounds[rd.req.RequestID] = rd
	}
	d.mu.Unlock()
	// Retiring the round makes routeResponse drop any straggler to it.
	defer d.retire(rd)
	sort.Strings(skipped)
	for _, mid := range skipped {
		sp.Event("breaker_skip", trace.S("monitor", mid))
	}
	if len(rd.awaiting) == 0 {
		return 0
	}

	// A registrant asked and not folded may have moved on past the copy this
	// tier keeps (a relaying tier below releases its pull whether or not its
	// answer arrives here, and its monitors' next deltas start from that
	// answer): forget drops the copy, and the next request asks for whole
	// columns.
	for c, a := range rd.awaiting {
		rd.req.Since = a.since
		if err := c.Send(transport.Envelope{Request: &rd.req, Trace: tc}); err != nil {
			d.log.Warn("sketch request send failed", "peer", a.id, "err", err)
			d.fail(sp, a.id, "request_send_failed")
			d.forget(c)
			delete(rd.awaiting, c)
		}
	}
	asked := len(rd.awaiting)
	rd.timer.Reset(d.cfg.Pull.Timeout)
	for len(rd.awaiting) > 0 {
		select {
		case in := <-rd.ch:
			a, ok := rd.awaiting[in.conn]
			if !ok {
				continue // duplicate, or a peer this round did not ask
			}
			delete(rd.awaiting, in.conn)
			mid, interval := a.id, in.r.Report.Interval
			if err := d.fold(p, in, a); err != nil {
				d.forget(in.conn)
				d.log.Warn("invalid sketch report", "peer", mid, "err", err)
				d.fail(sp, mid, "invalid_report")
				continue
			}
			if sp != nil {
				sp.Event("report", trace.S("monitor", mid), trace.I("sketch_interval", interval))
			}
			if d.breakerSuccess(mid) {
				sp.Event("breaker_close", trace.S("monitor", mid))
			}
		case <-rd.timer.C:
			for c, a := range rd.awaiting {
				d.log.Warn("sketch response timed out", "peer", a.id, "request", rd.req.RequestID, "timeout", d.cfg.Pull.Timeout)
				d.fail(sp, a.id, "response_timeout")
				d.forget(c)
			}
			return asked
		case <-d.done:
			return asked
		}
	}
	return asked
}

// fold validates one answer and adds it to p and the cache. The
// answer is bound to the connection it arrived on: it must carry that
// registrant's ID and may not name a flow that another live registrant owns
// or another report of this pull, or an earlier entry of its own, already
// covers. Flows nobody owns are accepted — a mid tier's degraded merge covers
// its dead monitors' flows. Delta columns must be the ones a asked for, and
// Pull applies them here (Relay keeps them).
func (d *Downstream) fold(p *Pull, in response, a asked) error {
	rep, mid := &in.r.Report, a.id
	if in.r.MonitorID != mid {
		return fmt.Errorf("answers as %q", in.r.MonitorID)
	}
	if err := rep.Validate(d.cfg.SketchLen); err != nil {
		return err
	}
	if rep.Family != d.cfg.Family {
		return fmt.Errorf("sketcher family %v, want %v", rep.Family, d.cfg.Family)
	}
	if len(rep.DeltaOf) > 0 {
		if a.since == 0 || rep.Since != a.since {
			return fmt.Errorf("%w: a delta since %d, asked since %d", transport.ErrBadMessage, rep.Since, a.since)
		}
		if !p.relay {
			if err := d.apply(in.conn, rep); err != nil {
				return err
			}
		}
	}
	forms := in.r.Forms
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, f := range rep.FlowIDs {
		var err error
		switch {
		case f < 0 || f >= d.cfg.NumFlows:
			err = fmt.Errorf("unknown flow %d", f)
		case d.owner[f] != nil && d.owner[f].conn != in.conn:
			err = fmt.Errorf("flow %d belongs to %q", f, d.owner[f].id)
		case p.by[f] != "":
			err = fmt.Errorf("flow %d already covered by %q", f, p.by[f])
		}
		if err != nil {
			for _, g := range rep.FlowIDs[:i] {
				p.by[g] = ""
			}
			return err
		}
		p.by[f] = mid
	}
	rows := append(d.folding[:0], make([]*rowCopy, len(rep.RowSums))...) // rep's R′, copied once for the columns cached
	for i, f := range rep.FlowIDs {
		if d.cols != nil && (d.cols[f].sketch == nil || rep.Interval >= d.cols[f].at) {
			c := &d.cols[f]
			c.sketch = append(c.sketch[:0], rep.Sketches[i]...)
			d.release(c.rows)
			c.mean, c.count, c.at, c.rows = rep.Means[i], rep.Counts[i], rep.Interval, nil
			if j := rep.RowSumOf; i < len(j) && j[i] >= 0 {
				if rows[j[i]] == nil {
					rows[j[i]] = d.copyRows(rep.RowSums[j[i]])
				}
				c.rows = rows[j[i]]
				c.rows.refs++
			}
		}
	}
	clear(rows)
	d.folding = rows
	p.Reports = append(p.Reports, *rep)
	if in.r.Degraded {
		p.Degraded = true
		p.Stale += in.r.StaleFlows
	}
	p.Interval = max(p.Interval, rep.Interval)
	p.Forms.Add(forms)
	d.cfg.Metrics.PulledRaw.Add(int64(forms.Raw))
	d.cfg.Metrics.PulledSums.Add(int64(forms.Sums))
	d.cfg.Metrics.PulledDelta.Add(int64(forms.Delta))
	if rep.Family == sketch.FamilyFD {
		// The cache and Reports keep the report's arrays; the response
		// decodes the registrant's next answer into arrays of its own.
		d.cache[mid] = *rep
		in.r.Report = core.SketchReport{}
		d.keepLocked(in.conn, in.r)
	} else {
		d.cache[mid] = core.SketchReport{Interval: rep.Interval}
		p.held = append(p.held, in)
	}
	return nil
}

// sinceLocked returns the Since a pull asks of conn's registrant: see Pull
// and Relay. Caller holds d.mu.
func (d *Downstream) sinceLocked(conn *transport.Conn, p *Pull) int64 {
	k := d.links[conn]
	switch {
	case k == nil || d.cfg.Family != sketch.FamilyRandProj || d.cfg.Degraded.Enabled || (d.gen == nil && !p.relay):
		return 0
	case p.relay && k.at != p.since:
		return 0
	}
	return k.at
}

// apply applies rep's delta columns to the last answer kept from conn, the
// one its Since names; a delta that does not apply is ErrBadMessage. Pulls
// that apply deltas, the NOC's, run one at a time: only their Release
// replaces that answer.
func (d *Downstream) apply(conn *transport.Conn, rep *core.SketchReport) error {
	d.mu.Lock()
	var base *core.SketchReport
	if k := d.links[conn]; k != nil && k.last != nil {
		base = &k.last.Report
	}
	d.mu.Unlock()
	d.applyMu.Lock()
	defer d.applyMu.Unlock()
	if d.applier == nil {
		d.applier = sketch.NewApplier(d.gen, d.cfg.WindowLen, d.cfg.NumFlows)
	}
	if err := d.applier.Apply(rep, base); err != nil {
		return fmt.Errorf("%w: %w", transport.ErrBadMessage, err)
	}
	return nil
}

// forget drops the answer kept from conn after one that failed to fold:
// the next request asks for whole columns.
func (d *Downstream) forget(conn *transport.Conn) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if k := d.links[conn]; k != nil {
		if k.spare == nil {
			k.spare = k.last
		}
		k.last, k.at = nil, 0
	}
}

// copyRows returns a copy of rs that no cached column points at yet, in a
// freed one's array when there is one. The caller holds d.mu.
func (d *Downstream) copyRows(rs []float64) *rowCopy {
	c := new(rowCopy)
	if n := len(d.freeRows); n > 0 {
		c, d.freeRows = d.freeRows[n-1], d.freeRows[:n-1]
	}
	c.sums = append(c.sums[:0], rs...)
	return c
}

// release drops a cached column's hold on its R′ copy c (nil: none), which
// goes back to be reused once no column holds it. The caller holds d.mu.
func (d *Downstream) release(c *rowCopy) {
	if c != nil {
		if c.refs--; c.refs == 0 {
			d.freeRows = append(d.freeRows, c)
		}
	}
}

// rowSumIndex returns the index in cached.RowSums of a copy of rows' R′,
// adding one when from, the copies already added, lacks rows, or −1 for
// none. Columns cached from one report share its R′; the cached report owns
// its copy, since a later fold may reuse rows'.
func rowSumIndex(cached *core.SketchReport, from *[]*rowCopy, rows *rowCopy) int {
	if rows == nil || len(rows.sums) == 0 {
		return -1
	}
	k := slices.Index(*from, rows)
	if k < 0 {
		k = len(cached.RowSums)
		cached.RowSums = append(cached.RowSums, slices.Clone(rows.sums))
		*from = append(*from, rows)
	}
	return k
}

// openLocked reports whether b has reached the failure threshold.
func (d *Downstream) openLocked(b *breakerState) bool {
	return b != nil && d.cfg.BreakerThreshold > 0 && b.failures >= d.cfg.BreakerThreshold
}

// excludedLocked reports whether id's breaker is open and still cooling down
// at now, i.e. pulls skip it; once the cooldown has passed the next round is
// the half-open probe.
func (d *Downstream) excludedLocked(id string, now time.Time) bool {
	b := d.breakers[id]
	return d.openLocked(b) && now.Before(b.openUntil)
}

// fail records a pull failure of registrant id on sp and charges it to the
// breaker, opening (or re-arming) it at the threshold.
func (d *Downstream) fail(sp *trace.Span, id, event string) {
	sp.Event(event, trace.S("monitor", id))
	if d.cfg.BreakerThreshold <= 0 {
		return
	}
	d.mu.Lock()
	b := d.breakers[id]
	if b == nil {
		b = &breakerState{}
		d.breakers[id] = b
	}
	b.failures++
	opened := b.failures == d.cfg.BreakerThreshold
	if d.openLocked(b) {
		b.openUntil = time.Now().Add(d.cfg.BreakerCooldown)
		d.breakerGaugeLocked()
	}
	d.mu.Unlock()
	if opened {
		d.cfg.Metrics.BreakerOpens.Inc()
		d.log.Warn("circuit breaker opened", "peer", id, "failures", d.cfg.BreakerThreshold, "cooldown", d.cfg.BreakerCooldown)
		sp.Event("breaker_open", trace.S("monitor", id))
	}
}

// breakerSuccess clears id's failure streak and reports whether an open
// breaker closed.
func (d *Downstream) breakerSuccess(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.breakers[id]
	if b == nil {
		return false
	}
	delete(d.breakers, id)
	d.breakerGaugeLocked()
	if d.openLocked(b) {
		d.log.Info("circuit breaker closed", "peer", id)
		return true
	}
	return false
}

// breakerGaugeLocked recomputes the open-breaker gauge. Caller holds d.mu.
func (d *Downstream) breakerGaugeLocked() {
	open := 0
	for _, b := range d.breakers {
		if d.openLocked(b) {
			open++
		}
	}
	d.cfg.Metrics.BreakerOpen.Set(float64(open))
}
