package tier

import (
	"fmt"
	"sort"
	"time"

	"streampca/internal/core"
	"streampca/internal/trace"
	"streampca/internal/transport"
)

// Pull is the state and result of one lazy sketch pull (§IV-C).
type Pull struct {
	// Reports holds the validated sketch reports by registrant ID: the fresh
	// answers, plus whatever FillCached substituted.
	Reports map[string]core.SketchReport
	// Newest is the newest interval among the fresh reports; Ref the
	// staleness reference point when the rounds ended: the newest interval a
	// volume report or one of these fresh reports has named. A sketch report
	// from an earlier pull never moves it, so a registrant that raced ahead
	// and vanished cannot vouch for its own cache entry.
	Newest, Ref int64
	// Rounds counts the rounds attempted.
	Rounds int
	// Degraded/Stale sum the degradation the answers themselves declared: a
	// mid tier that served part of its merge from cache tags its response,
	// and whatever is built from it must be flagged like a local fallback.
	Degraded bool
	Stale    int

	by []string // per flow: ID of the report covering it, "" = uncovered
}

// Pull asks the registrants for their sketches: up to 1+FetchRetries rounds
// with capped, jittered exponential backoff, each asking only the owners of
// flows still uncovered (partial results are kept across rounds) under a
// fresh request ID, so a late answer to an earlier round is dropped, never
// misattributed. sp, when non-nil, receives retry, per-registrant failure and
// breaker events; tc rides on the requests so serving spans parent under it.
func (d *Downstream) Pull(sp *trace.Span, tc *transport.TraceContext) *Pull {
	p := &Pull{Reports: make(map[string]core.SketchReport), by: make([]string, d.cfg.NumFlows)}
	backoff := d.cfg.FetchBackoff
	for round := 0; round <= d.cfg.FetchRetries; round++ {
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
			if backoff *= 2; backoff > d.cfg.FetchBackoffMax {
				backoff = d.cfg.FetchBackoffMax
			}
		}
		p.Rounds = round + 1
		if d.round(p, sp, tc) == 0 {
			// Nothing askable: the uncovered flows are unowned or their
			// owners breaker-open or unreachable. More rounds cannot help.
			break
		}
	}
	d.mu.Lock()
	p.Ref = d.lastInterval
	d.mu.Unlock()
	if p.Newest > p.Ref {
		p.Ref = p.Newest
	}
	return p
}

// Uncovered lists the flows p still owes: required or owned by a live
// registrant, and not covered by a report.
func (d *Downstream) Uncovered(p *Pull) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var miss []int
	for f, id := range p.by {
		if id == "" && (d.cfg.RequireAll || d.owner[f] != nil) {
			miss = append(miss, f)
		}
	}
	return miss
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

// FillCached substitutes cached reports for registrants that did not answer.
// A cached report is usable only whole — every flow it names still uncovered
// and not owned by a live registrant of another identity (sketch state merges
// at report granularity; a partly superseded one would double-count) — and
// only while DegradedPolicy calls it fresh against p.Ref. Candidates are
// taken in ID order for determinism. Returns the flows filled and the newest
// interval among the reports used.
func (d *Downstream) FillCached(p *Pull) (filled int, newest int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]string, 0, len(d.cache))
	for id := range d.cache {
		if _, fresh := p.Reports[id]; !fresh {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		snap := d.cache[id]
		usable := len(snap.FlowIDs) > 0 && d.cfg.Degraded.Fresh(p.Ref, snap.Interval)
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
		p.Reports[id] = snap
		filled += len(snap.FlowIDs)
		if snap.Interval > newest {
			newest = snap.Interval
		}
	}
	return filled, newest
}

// round issues one pull round and folds every validated answer that arrives
// before FetchTimeout into p. A failed send or bad report from one registrant
// never aborts the round — it is charged to that registrant's breaker and the
// others proceed. Returns the number of registrants asked.
func (d *Downstream) round(p *Pull, sp *trace.Span, tc *transport.TraceContext) int {
	now := time.Now()
	d.mu.Lock()
	awaiting := make(map[*transport.Conn]string)
	var skipped []string
	for c, e := range d.regs {
		if !p.owes(e.flows) {
			continue
		}
		if d.excludedLocked(e.id, now) {
			skipped = append(skipped, e.id)
			continue
		}
		awaiting[c] = e.id
	}
	var ch chan response
	var id uint64
	if len(awaiting) > 0 {
		d.nextReq++
		id = d.nextReq
		ch = make(chan response, len(awaiting))
		d.rounds[id] = ch
	}
	d.mu.Unlock()
	sort.Strings(skipped)
	for _, mid := range skipped {
		sp.Event("breaker_skip", trace.S("monitor", mid))
	}
	if ch == nil {
		return 0
	}
	// Retiring the ID makes routeResponse drop any straggler to this round.
	defer func() {
		d.mu.Lock()
		delete(d.rounds, id)
		d.mu.Unlock()
	}()

	for c, mid := range awaiting {
		if err := c.Send(transport.Envelope{Request: &transport.SketchRequest{RequestID: id}, Trace: tc}); err != nil {
			d.log.Warn("sketch request send failed", "peer", mid, "err", err)
			d.fail(sp, mid, "request_send_failed")
			delete(awaiting, c)
		}
	}
	asked := len(awaiting)
	timer := time.NewTimer(d.cfg.FetchTimeout)
	defer timer.Stop()
	for len(awaiting) > 0 {
		select {
		case in := <-ch:
			mid, ok := awaiting[in.conn]
			if !ok {
				continue // duplicate, or a peer this round did not ask
			}
			delete(awaiting, in.conn)
			if err := d.fold(p, in, mid); err != nil {
				d.log.Warn("invalid sketch report", "peer", mid, "err", err)
				d.fail(sp, mid, "invalid_report")
				continue
			}
			sp.Event("report", trace.S("monitor", mid), trace.I("sketch_interval", in.r.Report.Interval))
			if d.breakerSuccess(mid) {
				sp.Event("breaker_close", trace.S("monitor", mid))
			}
		case <-timer.C:
			for _, mid := range awaiting {
				d.log.Warn("sketch response timed out", "peer", mid, "request", id, "timeout", d.cfg.FetchTimeout)
				d.fail(sp, mid, "response_timeout")
			}
			return asked
		case <-d.done:
			return asked
		}
	}
	return asked
}

// fold validates one answer and adds it to p and the report cache. The
// answer is bound to the connection it arrived on: it must carry that
// registrant's ID and may not name a flow that another live registrant owns
// or another report of this pull already covers. Flows nobody owns are
// accepted — a mid tier's degraded merge covers its dead monitors' flows.
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
	for _, f := range rep.FlowIDs {
		switch {
		case f < 0 || f >= d.cfg.NumFlows:
			return fmt.Errorf("unknown flow %d", f)
		case d.owner[f] != nil && d.owner[f].conn != in.conn:
			return fmt.Errorf("flow %d belongs to %q", f, d.owner[f].id)
		case p.by[f] != "":
			return fmt.Errorf("flow %d already covered by %q", f, p.by[f])
		}
	}
	for _, f := range rep.FlowIDs {
		p.by[f] = mid
	}
	p.Reports[mid] = *rep
	d.cache[mid] = *rep
	if in.r.Degraded {
		p.Degraded = true
		p.Stale += in.r.StaleFlows
	}
	if rep.Interval > p.Newest {
		p.Newest = rep.Interval
	}
	return nil
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
