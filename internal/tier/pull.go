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

	by   []string // per flow: ID of the report covering it, "" = uncovered
	miss []int    // Uncovered's list
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
func (d *Downstream) Pull(sp *trace.Span, tc *transport.TraceContext) *Pull {
	d.mu.Lock()
	p := d.free
	d.free = nil
	d.mu.Unlock()
	if p == nil {
		p = &Pull{by: make([]string, d.cfg.NumFlows)}
	}
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
// decoded into: each registrant's next answer decodes into its last one, and
// the next Pull reuses p. Call it once nothing reads p any more: after the
// model is built or the merge sent. A pull never released costs allocation,
// not correctness.
func (d *Downstream) Release(p *Pull) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, h := range p.held {
		if d.regs[h.conn] != nil && d.spares[h.conn] == nil {
			d.spares[h.conn] = h.r
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
	awaiting map[*transport.Conn]string
	timer    *time.Timer
	req      transport.SketchRequest
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
	return &pullRound{awaiting: make(map[*transport.Conn]string), timer: t}
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
		if d.regs[in.conn] != nil && d.spares[in.conn] == nil {
			d.spares[in.conn] = in.r
		}
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
		rd.awaiting[c] = e.id
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

	for c, mid := range rd.awaiting {
		if err := c.Send(transport.Envelope{Request: &rd.req, Trace: tc}); err != nil {
			d.log.Warn("sketch request send failed", "peer", mid, "err", err)
			d.fail(sp, mid, "request_send_failed")
			delete(rd.awaiting, c)
		}
	}
	asked := len(rd.awaiting)
	rd.timer.Reset(d.cfg.Pull.Timeout)
	for len(rd.awaiting) > 0 {
		select {
		case in := <-rd.ch:
			mid, ok := rd.awaiting[in.conn]
			if !ok {
				continue // duplicate, or a peer this round did not ask
			}
			delete(rd.awaiting, in.conn)
			if err := d.fold(p, in, mid); err != nil {
				d.log.Warn("invalid sketch report", "peer", mid, "err", err)
				d.fail(sp, mid, "invalid_report")
				continue
			}
			if sp != nil {
				sp.Event("report", trace.S("monitor", mid), trace.I("sketch_interval", in.r.Report.Interval))
			}
			if d.breakerSuccess(mid) {
				sp.Event("breaker_close", trace.S("monitor", mid))
			}
		case <-rd.timer.C:
			for _, mid := range rd.awaiting {
				d.log.Warn("sketch response timed out", "peer", mid, "request", rd.req.RequestID, "timeout", d.cfg.Pull.Timeout)
				d.fail(sp, mid, "response_timeout")
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
// its dead monitors' flows.
func (d *Downstream) fold(p *Pull, in response, mid string) error {
	rep := &in.r.Report
	if in.r.MonitorID != mid {
		return fmt.Errorf("answers as %q", in.r.MonitorID)
	}
	if err := rep.Validate(d.cfg.SketchLen); err != nil {
		return err
	}
	if rep.Family != d.cfg.Family {
		return fmt.Errorf("sketcher family %v, want %v", rep.Family, d.cfg.Family)
	}
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
	if rep.Family == sketch.FamilyFD {
		d.cache[mid] = *rep
	} else {
		d.cache[mid] = core.SketchReport{Interval: rep.Interval}
		p.held = append(p.held, in)
	}
	if in.r.Degraded {
		p.Degraded = true
		p.Stale += in.r.StaleFlows
	}
	p.Interval = max(p.Interval, rep.Interval)
	return nil
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
