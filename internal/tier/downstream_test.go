package tier

import (
	"bytes"
	"encoding/gob"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/obs"
	"streampca/internal/sketch"
	"streampca/internal/transport"
)

const (
	testFlows     = 4
	testSketchLen = 3
	testWindow    = 16
	testSeed      = 7
)

// sink is the fake the downstream half delivers to.
type sink struct {
	mu        sync.Mutex
	intervals []Interval
	changes   int
}

func (s *sink) interval(iv Interval) {
	s.mu.Lock()
	s.intervals = append(s.intervals, iv)
	s.mu.Unlock()
}

func (s *sink) change() {
	s.mu.Lock()
	s.changes++
	s.mu.Unlock()
}

func (s *sink) indices() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, len(s.intervals))
	for i, iv := range s.intervals {
		out[i] = iv.Index
	}
	return out
}

func testMetrics() Metrics {
	reg := obs.NewRegistry()
	return Metrics{
		Registrants:     reg.Gauge("registrants", ""),
		Rejected:        reg.Counter("rejected", ""),
		Evicted:         reg.Counter("evicted", ""),
		PullRetries:     reg.Counter("retries", ""),
		BreakerOpen:     reg.Gauge("breaker_open", ""),
		BreakerOpens:    reg.Counter("breaker_opens", ""),
		DroppedForeign:  reg.Counter("dropped_foreign", ""),
		DroppedMismatch: reg.Counter("dropped_mismatch", ""),
		PulledRaw:       reg.Counter("pulled_raw", ""),
		PulledSums:      reg.Counter("pulled_sums", ""),
		PulledDelta:     reg.Counter("pulled_delta", ""),
	}
}

// newDownstream builds a downstream half over a fake sink; mutate adjusts the
// base configuration (short timeouts, no retries, nothing required).
func newDownstream(t *testing.T, mutate func(*DownstreamConfig)) (*Downstream, *sink) {
	t.Helper()
	s := &sink{}
	cfg := DownstreamConfig{
		Params:       core.Params{Family: sketch.FamilyRandProj, NumFlows: testFlows, WindowLen: testWindow, SketchLen: testSketchLen, Seed: testSeed},
		Pull:         PullPolicy{Timeout: 60 * time.Millisecond, Backoff: time.Millisecond},
		PullDefaults: AggPull,
		Metrics:      testMetrics(),
		OnInterval:   s.interval,
		OnChange:     s.change,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := NewDownstream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Shutdown)
	return d, s
}

// peer plays one registrant over an in-memory pipe. A pump goroutine drains
// every frame the tier sends (the pipe is unbuffered) and counts the sketch
// requests; answer, when set, builds the reply to each.
type peer struct {
	t     *testing.T
	id    string
	flows []int
	conn  *transport.Conn

	mu       sync.Mutex
	requests []uint64
	sinces   []int64 // each request's Since
	rejected bool
	refusal  transport.ErrorKind
	answer   func(p *peer, reqID uint64)
}

func hello(id string, flows []int) transport.Hello {
	return transport.Hello{MonitorID: id, FlowIDs: flows, SketchLen: testSketchLen, WindowLen: testWindow, Seed: testSeed}
}

// dial connects a peer and sends h without waiting for the outcome.
func dial(t *testing.T, d *Downstream, h transport.Hello, answer func(*peer, uint64)) *peer {
	t.Helper()
	mine, theirs := transport.Pipe()
	p := &peer{t: t, id: h.MonitorID, flows: h.FlowIDs, conn: mine, answer: answer}
	go func() {
		defer theirs.Close()
		d.Handle(theirs)
	}()
	go p.pump()
	t.Cleanup(func() { _ = mine.Close() })
	if err := mine.Send(transport.Envelope{Hello: &h}); err != nil {
		t.Fatalf("%s hello: %v", h.MonitorID, err)
	}
	return p
}

// attach is dial plus waiting for the registration.
func attach(t *testing.T, d *Downstream, id string, flows []int, answer func(*peer, uint64)) *peer {
	t.Helper()
	p := dial(t, d, hello(id, flows), answer)
	waitFor(t, "registration of "+id, func() bool { return registered(d, id) })
	return p
}

func (p *peer) pump() {
	for {
		env, err := p.conn.Recv()
		if err != nil {
			return
		}
		switch {
		case env.Request != nil:
			p.mu.Lock()
			p.requests = append(p.requests, env.Request.RequestID)
			p.sinces = append(p.sinces, env.Request.Since)
			answer := p.answer
			p.mu.Unlock()
			if answer != nil {
				answer(p, env.Request.RequestID)
			}
		case env.Error != nil:
			p.mu.Lock()
			p.rejected, p.refusal = true, env.Error.Kind
			p.mu.Unlock()
		}
	}
}

func (p *peer) asked() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.requests)
}

func (p *peer) wasRejected() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rejected
}

func (p *peer) setAnswer(fn func(*peer, uint64)) {
	p.mu.Lock()
	p.answer = fn
	p.mu.Unlock()
}

func (p *peer) send(env transport.Envelope) {
	if err := p.conn.Send(env); err != nil {
		p.t.Errorf("%s send: %v", p.id, err)
	}
}

func (p *peer) volumes(as string, interval int64, flows []int, vols ...float64) {
	p.send(transport.Envelope{Volume: &transport.VolumeReport{MonitorID: as, Interval: interval, FlowIDs: flows, Volumes: vols}})
}

// respond sends a sketch response as id covering flows at interval.
func (p *peer) respond(reqID uint64, id string, interval int64, flows []int) {
	p.send(transport.Envelope{Response: &transport.SketchResponse{RequestID: reqID, MonitorID: id, Report: report(interval, flows)}})
}

// honest answers every request with the peer's own flows at interval.
func honest(interval int64) func(*peer, uint64) {
	return func(p *peer, reqID uint64) { p.respond(reqID, p.id, interval, p.flows) }
}

// report builds a valid randproj snapshot with recognizable values.
func report(interval int64, flows []int) core.SketchReport {
	rep := core.SketchReport{Interval: interval, FlowIDs: append([]int(nil), flows...), Family: sketch.FamilyRandProj}
	for _, f := range flows {
		rep.Sketches = append(rep.Sketches, []float64{float64(f), float64(interval), 1})
		rep.Means = append(rep.Means, float64(f))
		rep.Counts = append(rep.Counts, interval)
	}
	return rep
}

func registered(d *Downstream, id string) bool { return slices.Contains(d.IDs(), id) }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// stating returns a Hello for flows that states p.
func stating(p core.Params, flows ...int) transport.Hello {
	return Stated(p, transport.Hello{MonitorID: "b", FlowIDs: flows})
}

// TestRegistrationClaims: one comparison of a Hello's parameters against the
// deployment's refuses every mismatch with a typed refusal, and accepts what a
// peer leaves unstated — m from a peer built before it stated it, all of them
// from a peer that has not adopted the announcement yet.
func TestRegistrationClaims(t *testing.T) {
	deployed := core.Params{Family: sketch.FamilyRandProj, NumFlows: testFlows, WindowLen: testWindow, SketchLen: testSketchLen, Seed: testSeed}
	with := func(mutate func(*core.Params)) core.Params {
		p := deployed
		mutate(&p)
		return p
	}
	params := transport.ErrorParams
	cases := []struct {
		name  string
		hello transport.Hello
		ok    bool
		kind  transport.ErrorKind
	}{
		{"disjoint flows", hello("b", []int{2, 3}), true, 0},
		{"every parameter stated", stating(deployed, 2), true, 0},
		{"no parameters yet", transport.Hello{MonitorID: "b"}, true, 0},
		{"conflicting flow", hello("b", []int{1, 2}), false, 0},
		{"flow past the range", hello("b", []int{testFlows}), false, 0},
		{"negative flow", hello("b", []int{-1}), false, 0},
		{"flows under no parameters", transport.Hello{MonitorID: "b", FlowIDs: []int{2}}, false, params},
		{"seed mismatch", transport.Hello{MonitorID: "b", FlowIDs: []int{2}, SketchLen: testSketchLen, WindowLen: testWindow, Seed: testSeed + 1}, false, params},
		{"sketch length mismatch", transport.Hello{MonitorID: "b", FlowIDs: []int{2}, SketchLen: testSketchLen + 1, WindowLen: testWindow, Seed: testSeed}, false, params},
		{"window mismatch", transport.Hello{MonitorID: "b", FlowIDs: []int{2}, SketchLen: testSketchLen, WindowLen: testWindow + 1, Seed: testSeed}, false, params},
		{"family mismatch", transport.Hello{MonitorID: "b", FlowIDs: []int{2}, SketchLen: testSketchLen, WindowLen: testWindow, Family: sketch.FamilyFD}, false, params},
		{"flow count mismatch", stating(with(func(p *core.Params) { p.NumFlows++ }), 2), false, params},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := newDownstream(t, func(c *DownstreamConfig) { c.Params = deployed })
			attach(t, d, "a", []int{0, 1}, nil)
			b := dial(t, d, tc.hello, nil)
			if tc.ok {
				waitFor(t, "registration", func() bool { return registered(d, "b") })
				return
			}
			waitFor(t, "rejection", b.wasRejected)
			b.mu.Lock()
			kind := b.refusal
			b.mu.Unlock()
			if kind != tc.kind {
				t.Errorf("refusal kind = %v, want %v", kind, tc.kind)
			}
			if got := d.cfg.Metrics.Rejected.Value(); got != 1 {
				t.Errorf("rejected counter = %d, want 1", got)
			}
			if got := d.OwnedFlows(); !reflect.DeepEqual(got, []int{0, 1}) {
				t.Errorf("owned flows after the rejection = %v, want a's only", got)
			}
		})
	}
}

// TestReHelloReleasesClaimAndFlushes pins the one ownership-change path: a
// repeat Hello with a smaller claim frees the dropped flows for another peer
// and completes the intervals that were waiting on them — for a tier with
// nothing required (the aggregator, which did not do this before the core)
// as for one that requires every flow and may fill from cache (the NOC).
func TestReHelloReleasesClaimAndFlushes(t *testing.T) {
	for _, requireAll := range []bool{false, true} {
		d, s := newDownstream(t, func(c *DownstreamConfig) {
			c.RequireAll = requireAll
			c.Degraded = DegradedPolicy{Enabled: true, MaxStaleness: 2}
		})
		a := attach(t, d, "a", []int{0, 1}, nil)
		b := attach(t, d, "b", []int{2, 3}, nil)
		// Interval 1 completes normally and primes the volume cache.
		a.volumes("a", 1, []int{0, 1}, 10, 11)
		b.volumes("b", 1, []int{2, 3}, 12, 13)
		waitFor(t, "interval 1", func() bool { return len(s.indices()) == 1 })
		// Interval 2 is stuck on b's flows until b stops claiming flow 3 ...
		a.volumes("a", 2, []int{0, 1}, 20, 21)
		b.volumes("b", 2, []int{2}, 22)
		waitFor(t, "interval 2 pending", func() bool { return d.PendingIntervals() == 1 })
		h := hello("b", []int{2})
		b.send(transport.Envelope{Hello: &h})
		waitFor(t, "interval 2", func() bool { return len(s.indices()) == 2 })

		s.mu.Lock()
		got := s.intervals[1]
		s.mu.Unlock()
		want := Interval{Index: 2, Volumes: []float64{20, 21, 22, 0}, Seen: []bool{true, true, true, false}}
		if requireAll { // flow 3 is required: its interval-1 volume stands in
			want.Volumes[3], want.Stale = 13, 1
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("requireAll=%t: flushed interval = %+v, want %+v", requireAll, got, want)
		}
		// ... and flow 3 is free for someone else.
		attach(t, d, "c", []int{3}, nil)
	}
}

func TestPendingEvictionDropsOldest(t *testing.T) {
	d, s := newDownstream(t, nil)
	a := attach(t, d, "a", []int{0}, nil)
	b := attach(t, d, "b", []int{1}, nil)
	const last = maxPending + 1
	for iv := int64(1); iv <= last; iv++ {
		a.volumes("a", iv, []int{0}, float64(iv))
	}
	waitFor(t, "eviction", func() bool { return d.cfg.Metrics.Evicted.Value() == 1 })
	if got := d.PendingIntervals(); got != maxPending {
		t.Fatalf("pending intervals = %d, want %d", got, maxPending)
	}
	// 2..last survived; 1 was the oldest and is gone, so b's report for it
	// opens a fresh accumulator instead of completing it.
	var want []int64
	for iv := int64(last); iv >= 2; iv-- {
		b.volumes("b", iv, []int{1}, 10*float64(iv))
		want = append(want, iv)
	}
	waitFor(t, "intervals 2..last", func() bool { return len(s.indices()) == maxPending })
	b.volumes("b", 1, []int{1}, 10)
	waitFor(t, "interval 1 re-opened", func() bool { return d.PendingIntervals() == 1 })
	if got := s.indices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

// TestSupersededRequestIDDropped: an answer to round 1 that arrives during
// round 2 must be dropped, not taken for round 2's.
func TestSupersededRequestIDDropped(t *testing.T) {
	d, _ := newDownstream(t, func(c *DownstreamConfig) { c.Pull.Retries = 1 })
	a := attach(t, d, "a", []int{0, 1}, nil)
	a.setAnswer(func(p *peer, reqID uint64) {
		if p.asked() == 1 {
			return // let round 1 time out
		}
		p.respond(p.requests[0], "a", 7, p.flows) // the late answer to round 1
		p.respond(reqID, "a", 9, p.flows)
	})
	p := d.Pull(nil, nil)
	if p.Rounds != 2 || len(d.Uncovered(p)) != 0 {
		t.Fatalf("rounds = %d, uncovered = %v", p.Rounds, d.Uncovered(p))
	}
	if len(p.Reports) != 1 || p.Reports[0].Interval != 9 {
		t.Fatalf("pull kept %+v, want only the report of interval 9 (round 2's answer)", p.Reports)
	}
	if a.requests[0] == a.requests[1] {
		t.Fatalf("both rounds used request ID %d", a.requests[0])
	}
	if got := d.cfg.Metrics.PullRetries.Value(); got != 1 {
		t.Fatalf("retry counter = %d, want 1", got)
	}
}

func TestRetryRoundAsksOnlyOwnersOfUncoveredFlows(t *testing.T) {
	d, _ := newDownstream(t, func(c *DownstreamConfig) { c.Pull.Retries = 2; c.RequireAll = true })
	a := attach(t, d, "a", []int{0, 1}, honest(5))
	b := attach(t, d, "b", []int{2, 3}, nil)
	b.setAnswer(func(p *peer, reqID uint64) {
		if p.asked() > 1 {
			p.respond(reqID, "b", 5, p.flows)
		}
	})
	p := d.Pull(nil, nil)
	if p.Rounds != 2 || len(d.Uncovered(p)) != 0 {
		t.Fatalf("rounds = %d, uncovered = %v, want 2 rounds and full coverage", p.Rounds, d.Uncovered(p))
	}
	if a.asked() != 1 || b.asked() != 2 {
		t.Fatalf("a asked %d times, b %d; want 1 and 2", a.asked(), b.asked())
	}
}

func TestBreakerLifecycle(t *testing.T) {
	const cooldown = 200 * time.Millisecond
	d, _ := newDownstream(t, func(c *DownstreamConfig) {
		c.BreakerThreshold = 2
		c.BreakerCooldown = cooldown
	})
	attach(t, d, "a", []int{0}, honest(1))
	b := attach(t, d, "b", []int{1}, nil) // registered, mute
	open := func() float64 { return d.cfg.Metrics.BreakerOpen.Value() }

	d.Pull(nil, nil)
	if open() != 0 {
		t.Fatal("breaker open after one failure, threshold is 2")
	}
	d.Pull(nil, nil)
	opened := time.Now()
	if open() != 1 || d.cfg.Metrics.BreakerOpens.Value() != 1 {
		t.Fatalf("after 2 timeouts: open gauge %v, opens %d; want 1 and 1", open(), d.cfg.Metrics.BreakerOpens.Value())
	}
	for _, r := range d.Registrants() {
		if r.BreakerOpen != (r.ID == "b") {
			t.Fatalf("registrant %s BreakerOpen = %t", r.ID, r.BreakerOpen)
		}
	}
	d.Pull(nil, nil)
	if time.Since(opened) < cooldown && b.asked() != 2 {
		t.Fatalf("open breaker: b asked %d times, want 2 (skipped)", b.asked())
	}
	// Half-open: one probe after the cooldown; its failure re-arms it.
	time.Sleep(cooldown)
	d.Pull(nil, nil)
	rearmed := time.Now()
	if b.asked() != 3 {
		t.Fatalf("after the cooldown b asked %d times, want 3 (the probe)", b.asked())
	}
	d.Pull(nil, nil)
	if time.Since(rearmed) < cooldown && b.asked() != 3 {
		t.Fatalf("re-armed breaker: b asked %d times, want 3", b.asked())
	}
	if d.cfg.Metrics.BreakerOpens.Value() != 1 {
		t.Fatal("re-arming counted as a second open transition")
	}
	// Re-registration is proof of life.
	h := hello("b", []int{1})
	b.send(transport.Envelope{Hello: &h})
	waitFor(t, "breaker reset", func() bool { return open() == 0 })
	b.setAnswer(honest(1))
	if p := d.Pull(nil, nil); len(p.Reports) != 2 {
		t.Fatalf("after re-registration the pull gathered %d reports, want 2", len(p.Reports))
	}
}

// TestFramesBoundToTheirConnection is the spoofing regression: a registrant
// may neither speak under another's ID nor touch another live registrant's
// flows, in volume reports or in sketch responses. Before the core both
// tiers trusted the self-declared MonitorID and any in-range flow.
func TestFramesBoundToTheirConnection(t *testing.T) {
	d, s := newDownstream(t, func(c *DownstreamConfig) { c.RequireAll = true; c.BreakerThreshold = 1 })
	a := attach(t, d, "a", []int{0, 1}, nil)
	b := attach(t, d, "b", []int{2, 3}, honest(4))

	a.volumes("b", 1, []int{2, 3}, 666, 666)       // as b: dropped whole
	a.volumes("a", 1, []int{0, 1, 2}, 10, 11, 666) // b's column skipped
	b.volumes("b", 1, []int{2, 3}, 12, 13)
	waitFor(t, "interval 1", func() bool { return len(s.indices()) == 1 })
	if got := s.intervals[0].Volumes; !reflect.DeepEqual(got, []float64{10, 11, 12, 13}) {
		t.Fatalf("volumes = %v: a overwrote b's columns", got)
	}

	spoofs := map[string]func(*peer, uint64){
		"answers as b":   func(p *peer, id uint64) { p.respond(id, "b", 4, []int{2, 3}) },
		"names b's flow": func(p *peer, id uint64) { p.respond(id, "a", 4, []int{0, 1, 2}) },
		"unknown flow":   func(p *peer, id uint64) { p.respond(id, "a", 4, []int{0, testFlows}) },
		"malformed snapshot": func(p *peer, id uint64) {
			p.send(transport.Envelope{Response: &transport.SketchResponse{RequestID: id, MonitorID: "a", Report: core.SketchReport{FlowIDs: []int{0, 1}}}})
		},
	}
	opens := int64(0)
	for name, spoof := range spoofs {
		a.setAnswer(spoof)
		p := d.Pull(nil, nil)
		if got := d.Uncovered(p); !reflect.DeepEqual(got, []int{0, 1}) {
			t.Errorf("%s: uncovered = %v, want a's flows [0 1]", name, got)
		}
		if len(p.Reports) != 1 || !reflect.DeepEqual(p.Reports[0], report(4, []int{2, 3})) {
			t.Errorf("%s: reports = %+v, want only b's own", name, p.Reports)
		}
		// The invalid report is charged to the sender, never to b.
		if opens++; d.cfg.Metrics.BreakerOpens.Value() != opens {
			t.Errorf("%s: breaker opens = %d, want %d", name, d.cfg.Metrics.BreakerOpens.Value(), opens)
		}
		for _, r := range d.Registrants() {
			if r.BreakerOpen != (r.ID == "a") {
				t.Errorf("%s: registrant %s BreakerOpen = %t", name, r.ID, r.BreakerOpen)
			}
		}
		h := hello("a", []int{0, 1}) // re-register to close a's breaker
		a.send(transport.Envelope{Hello: &h})
		waitFor(t, "breaker reset", func() bool { return d.cfg.Metrics.BreakerOpen.Value() == 0 })
	}

	// Flows nobody owns stay accepted: once a is gone, b may cover them (a
	// mid tier's degraded merge does).
	_ = a.conn.Close()
	waitFor(t, "a dropped", func() bool { return !registered(d, "a") })
	b.setAnswer(func(p *peer, id uint64) { p.respond(id, "b", 5, []int{0, 1, 2, 3}) })
	if p := d.Pull(nil, nil); len(d.Uncovered(p)) != 0 {
		t.Fatalf("b's report over unowned flows refused: uncovered %v", d.Uncovered(p))
	}
}

// TestImplicitFlowList: a volume report with no flow list reads against the
// flows of its connection's last Hello, in that order; one whose volumes do
// not match those flows in number, or sent under another ID, is dropped and
// counted by reason.
func TestImplicitFlowList(t *testing.T) {
	d, s := newDownstream(t, func(c *DownstreamConfig) { c.RequireAll = true })
	a := attach(t, d, "a", []int{1, 0}, nil)
	b := attach(t, d, "b", []int{2, 3}, nil)
	met := d.cfg.Metrics

	a.volumes("a", 1, nil, 11, 10)
	b.volumes("b", 1, nil, 666)      // one volume for two flows
	b.volumes("a", 1, nil, 666, 666) // a's ID on b's connection
	waitFor(t, "both drops counted", func() bool {
		return met.DroppedMismatch.Value() == 1 && met.DroppedForeign.Value() == 1
	})
	b.volumes("b", 1, nil, 12, 13)
	waitFor(t, "interval 1", func() bool { return len(s.indices()) == 1 })
	if got := s.intervals[0].Volumes; !reflect.DeepEqual(got, []float64{10, 11, 12, 13}) {
		t.Fatalf("interval 1 = %v, want the volumes in each Hello's order", got)
	}

	h := hello("b", []int{3, 2}) // a re-Hello reorders b's list
	b.send(transport.Envelope{Hello: &h})
	b.volumes("b", 2, nil, 23, 22)
	a.volumes("a", 2, []int{0, 1}, 20, 21) // an explicit list still rules
	waitFor(t, "interval 2", func() bool { return len(s.indices()) == 2 })
	if got := s.intervals[1].Volumes; !reflect.DeepEqual(got, []float64{20, 21, 22, 23}) {
		t.Fatalf("interval 2 = %v, want b's volumes read against its re-Hello", got)
	}
	if met.DroppedMismatch.Value() != 1 || met.DroppedForeign.Value() != 1 {
		t.Fatalf("drops = %d mismatched, %d foreign, want 1 and 1", met.DroppedMismatch.Value(), met.DroppedForeign.Value())
	}
}

// reportOf builds a valid snapshot of family fam with recognizable values.
func reportOf(fam sketch.Family, interval int64, flows []int) core.SketchReport {
	if fam == sketch.FamilyRandProj {
		return report(interval, flows)
	}
	rep := core.SketchReport{Interval: interval, FlowIDs: append([]int(nil), flows...), Family: fam, FDEll: testSketchLen}
	row := make([]float64, len(flows))
	for i, f := range flows {
		rep.Means = append(rep.Means, float64(f))
		row[i] = float64(interval)
	}
	rep.FDRows = [][]float64{row}
	return rep
}

// TestDegradedFillGranularity pins the one substitution rule of a degraded
// pull for both families: a dead registrant's cached sketches stand in while
// Fresh admits them against the reference point, in either direction. Once
// another registrant claims part of its flows, its FD block is unusable
// whole, while its randproj column of the unclaimed flow still fills in.
func TestDegradedFillGranularity(t *testing.T) {
	for _, fam := range []sketch.Family{sketch.FamilyRandProj, sketch.FamilyFD} {
		t.Run(fam.String(), func(t *testing.T) {
			d, _ := newDownstream(t, func(c *DownstreamConfig) {
				c.Family = fam
				c.Degraded = DegradedPolicy{Enabled: true, MaxStaleness: 2}
			})
			at := func(interval int64) func(*peer, uint64) {
				return func(p *peer, reqID uint64) {
					p.send(transport.Envelope{Response: &transport.SketchResponse{
						RequestID: reqID, MonitorID: p.id, Report: reportOf(fam, interval, p.flows)}})
				}
			}
			join := func(id string, flows []int, answer func(*peer, uint64)) *peer {
				h := hello(id, flows)
				h.Family = fam
				p := dial(t, d, h, answer)
				waitFor(t, "registration of "+id, func() bool { return registered(d, id) })
				return p
			}
			a := join("a", []int{0, 1}, at(10))
			b := join("b", []int{2, 3}, at(10))
			if p := d.Pull(nil, nil); p.Degraded || p.Filled != 0 {
				t.Fatalf("priming pull (both at 10) degraded=%t filled=%d", p.Degraded, p.Filled)
			}
			_ = b.conn.Close()
			waitFor(t, "b dropped", func() bool { return !registered(d, "b") })

			rows := []struct {
				name       string
				fresh      int64 // interval a answers at; it becomes the reference point
				claim3     bool  // c claims flow 3 before the pull
				rp, fdWant int
			}{
				{"within staleness", 12, false, 2, 2},
				{"beyond it", 13, false, 0, 0},
				{"ahead of the reference point", 8, false, 2, 2},
				{"too far ahead of it", 7, false, 0, 0},
				{"partly superseded", 10, true, 1, 0},
			}
			for _, r := range rows {
				if r.claim3 {
					join("c", []int{3}, at(10))
				}
				a.setAnswer(at(r.fresh))
				p := d.Pull(nil, nil)
				want := r.rp
				if fam == sketch.FamilyFD {
					want = r.fdWant
				}
				if p.Filled != want || p.Stale != want || p.Degraded != (want > 0) {
					t.Errorf("%s (reference %d, cache at 10, staleness 2): filled %d stale %d degraded %t, want %d",
						r.name, r.fresh, p.Filled, p.Stale, p.Degraded, want)
				}
				if p.Interval != r.fresh {
					t.Errorf("%s: answer interval %d, want the fresh %d", r.name, p.Interval, r.fresh)
				}
			}
		})
	}
}

// TestDegradedFillKeepsColumnsASmallerReportLeftOut: a randproj column stays
// in the cache, with its R′, after its registrant's later report no longer
// names the flow, though that report's R′ reuses a copy the cache let go.
func TestDegradedFillKeepsColumnsASmallerReportLeftOut(t *testing.T) {
	d, _ := newDownstream(t, func(c *DownstreamConfig) {
		c.RequireAll = true
		c.Degraded = DegradedPolicy{Enabled: true, MaxStaleness: 2}
	})
	// withRows answers with flows at interval over the one R′ rows.
	withRows := func(interval int64, flows []int, rows []float64) func(*peer, uint64) {
		return func(p *peer, reqID uint64) {
			rep := report(interval, flows)
			rep.RowSums, rep.RowSumOf = [][]float64{rows}, make([]int, len(flows))
			p.send(transport.Envelope{Response: &transport.SketchResponse{RequestID: reqID, MonitorID: "b", Report: rep}})
		}
	}
	attach(t, d, "a", []int{0, 1}, honest(11))
	b := attach(t, d, "b", []int{2, 3}, withRows(9, []int{2, 3}, []float64{1, -1, 3}))
	d.Release(d.Pull(nil, nil))
	b.setAnswer(withRows(10, []int{2, 3}, []float64{2, 0, -2}))
	d.Release(d.Pull(nil, nil))
	h := hello("b", []int{2})
	b.send(transport.Envelope{Hello: &h})
	waitFor(t, "b shrinks", func() bool { return len(d.OwnedFlows()) == 3 })
	b.setAnswer(withRows(11, []int{2}, []float64{5, 3, 1}))
	p := d.Pull(nil, nil)
	if p.Filled != 1 || len(d.Uncovered(p)) != 0 {
		t.Fatalf("b's smaller report: filled %d, uncovered %v; want flow 3 from b's earlier report", p.Filled, d.Uncovered(p))
	}
	for _, rep := range p.Reports {
		if i := slices.Index(rep.FlowIDs, 3); i >= 0 && !slices.Equal(rep.RowSum(i), []float64{2, 0, -2}) {
			t.Fatalf("flow 3 filled over R′ %v, want its report's (2 0 -2)", rep.RowSum(i))
		}
	}
}

// TestDegradedConcurrentPulls: an aggregator answers upstream pulls
// concurrently, so folds and fills share the cache under -race.
func TestDegradedConcurrentPulls(t *testing.T) {
	d, _ := newDownstream(t, func(c *DownstreamConfig) {
		c.Degraded = DegradedPolicy{Enabled: true, MaxStaleness: 2}
	})
	attach(t, d, "a", []int{0, 1}, honest(10))
	b := attach(t, d, "b", []int{2, 3}, honest(10))
	d.Pull(nil, nil)
	_ = b.conn.Close()
	waitFor(t, "b dropped", func() bool { return !registered(d, "b") })
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p := d.Pull(nil, nil); p.Filled != 2 {
				t.Errorf("concurrent pull filled %d flows, want b's 2", p.Filled)
			}
		}()
	}
	wg.Wait()
}

func TestAddrAndShutdownWithoutServe(t *testing.T) {
	d, _ := newDownstream(t, nil)
	if got := d.Addr(); got != "" {
		t.Fatalf("Addr before Serve = %q, want empty", got)
	}
	d.Shutdown()
	d.Shutdown()
}

// TestDownstreamRefusesOtherVersions: a peer that opens with gob, as builds
// before this wire do, is refused with an ErrorVersion the tier counts, and
// never registers.
func TestDownstreamRefusesOtherVersions(t *testing.T) {
	d, _ := newDownstream(t, nil)
	mine, theirs := net.Pipe()
	t.Cleanup(func() { _ = mine.Close() })
	go func() {
		defer theirs.Close()
		d.Handle(transport.NewConnWithMetrics(theirs, nil))
	}()
	h := hello("old", []int{0})
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&transport.Envelope{Hello: &h}); err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = mine.Write(old.Bytes()) }()
	env, err := transport.NewConnWithMetrics(mine, nil).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Kind != transport.ErrorVersion {
		t.Fatalf("answer %+v, want an ErrorVersion refusal", env)
	}
	if n := d.cfg.Metrics.Rejected.Value(); n != 1 || registered(d, "old") {
		t.Fatalf("rejected %d, registered %v", n, registered(d, "old"))
	}
}

// TestReleasedIntervalIsReused: a sink that hands every interval back once it
// is done with it (ReleaseInterval, as agg.Service does after the forward)
// gets each later interval in the same arrays, so a steady-state interval
// allocates no accumulator. They come back cleared: a flow reported in one
// interval and not the next reads unseen and 0 there.
func TestReleasedIntervalIsReused(t *testing.T) {
	var (
		d       *Downstream
		mu      sync.Mutex
		got     []Interval
		backing []*float64
	)
	d, _ = newDownstream(t, func(c *DownstreamConfig) {
		c.OnInterval = func(iv Interval) {
			kept := Interval{Index: iv.Index, Volumes: slices.Clone(iv.Volumes), Seen: slices.Clone(iv.Seen)}
			at := &iv.Volumes[0]
			d.ReleaseInterval(iv)
			mu.Lock()
			got, backing = append(got, kept), append(backing, at)
			mu.Unlock()
		}
	})
	a := attach(t, d, "a", []int{0, 1, 2}, nil)
	delivered := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}
	// Flow 3 is nobody's, so a may report it, and does only in interval 1.
	a.volumes("a", 1, []int{0, 1, 2, 3}, 10, 11, 12, 13)
	waitFor(t, "interval 1", func() bool { return delivered() == 1 })
	for iv := int64(2); iv <= 5; iv++ {
		v := float64(10 * iv)
		a.volumes("a", iv, []int{0, 1, 2}, v, v+1, v+2)
		waitFor(t, "the next interval", func() bool { return delivered() == int(iv) })
	}
	mu.Lock()
	defer mu.Unlock()
	for i, at := range backing {
		if at != backing[0] {
			t.Errorf("interval %d accumulated in new arrays, not the released ones", got[i].Index)
		}
	}
	want := Interval{Index: 2, Volumes: []float64{20, 21, 22, 0}, Seen: []bool{true, true, true, false}}
	if !reflect.DeepEqual(got[1], want) {
		t.Errorf("interval 2 in released arrays = %+v, want %+v", got[1], want)
	}
}

// TestReleasedIntervalsUnderConcurrentReports: two registrants report on
// their own connections at once, so intervals complete, and are released, on
// either reader while the other opens the next accumulator. Every interval
// still carries exactly its own volumes.
func TestReleasedIntervalsUnderConcurrentReports(t *testing.T) {
	const intervals = 50 // below maxPending, so nothing is evicted
	var (
		d         *Downstream
		mu        sync.Mutex
		delivered int
	)
	d, _ = newDownstream(t, func(c *DownstreamConfig) {
		c.OnInterval = func(iv Interval) {
			v := float64(10 * iv.Index)
			want := Interval{Index: iv.Index, Volumes: []float64{v, v + 1, v + 2, v + 3}, Seen: []bool{true, true, true, true}}
			if !reflect.DeepEqual(iv, want) {
				t.Errorf("interval %d = %+v, want %+v", iv.Index, iv, want)
			}
			d.ReleaseInterval(iv)
			mu.Lock()
			delivered++
			mu.Unlock()
		}
	})
	a := attach(t, d, "a", []int{0, 1}, nil)
	b := attach(t, d, "b", []int{2, 3}, nil)
	var wg sync.WaitGroup
	for _, p := range []struct {
		peer  *peer
		id    string
		flows []int
		first float64
	}{{a, "a", []int{0, 1}, 0}, {b, "b", []int{2, 3}, 2}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iv := int64(1); iv <= intervals; iv++ {
				v := float64(10*iv) + p.first
				p.peer.volumes(p.id, iv, p.flows, v, v+1)
			}
		}()
	}
	wg.Wait()
	waitFor(t, "every interval", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return delivered == intervals
	})
}
