package tier

import (
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
		Registrants:  reg.Gauge("registrants", ""),
		Rejected:     reg.Counter("rejected", ""),
		Evicted:      reg.Counter("evicted", ""),
		PullRetries:  reg.Counter("retries", ""),
		BreakerOpen:  reg.Gauge("breaker_open", ""),
		BreakerOpens: reg.Counter("breaker_opens", ""),
	}
}

// newDownstream builds a downstream half over a fake sink; mutate adjusts the
// base configuration (short timeouts, no retries, nothing required).
func newDownstream(t *testing.T, mutate func(*DownstreamConfig)) (*Downstream, *sink) {
	t.Helper()
	s := &sink{}
	cfg := DownstreamConfig{
		Params:       Params{Family: sketch.FamilyRandProj, NumFlows: testFlows, WindowLen: testWindow, SketchLen: testSketchLen, Seed: testSeed},
		FetchTimeout: 60 * time.Millisecond,
		FetchBackoff: time.Millisecond,
		Metrics:      testMetrics(),
		OnInterval:   s.interval,
		OnChange:     s.change,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d := NewDownstream(cfg)
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
	rejected bool
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
			answer := p.answer
			p.mu.Unlock()
			if answer != nil {
				answer(p, env.Request.RequestID)
			}
		case env.Error != nil:
			p.mu.Lock()
			p.rejected = true
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
		rep.Buckets = append(rep.Buckets, 1)
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

func TestRegistrationClaims(t *testing.T) {
	cases := []struct {
		name  string
		hello transport.Hello
		ok    bool
	}{
		{"disjoint flows", hello("b", []int{2, 3}), true},
		{"conflicting flow", hello("b", []int{1, 2}), false},
		{"flow past the range", hello("b", []int{testFlows}), false},
		{"negative flow", hello("b", []int{-1}), false},
		{"seed mismatch", transport.Hello{MonitorID: "b", FlowIDs: []int{2}, SketchLen: testSketchLen, WindowLen: testWindow, Seed: testSeed + 1}, false},
		{"sketch length mismatch", transport.Hello{MonitorID: "b", FlowIDs: []int{2}, SketchLen: testSketchLen + 1, WindowLen: testWindow, Seed: testSeed}, false},
		{"window mismatch", transport.Hello{MonitorID: "b", FlowIDs: []int{2}, SketchLen: testSketchLen, WindowLen: testWindow + 1, Seed: testSeed}, false},
		{"family mismatch", transport.Hello{MonitorID: "b", FlowIDs: []int{2}, SketchLen: testSketchLen, WindowLen: testWindow, Family: sketch.FamilyFD}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := newDownstream(t, nil)
			attach(t, d, "a", []int{0, 1}, nil)
			b := dial(t, d, tc.hello, nil)
			if tc.ok {
				waitFor(t, "registration", func() bool { return registered(d, "b") })
				return
			}
			waitFor(t, "rejection", b.wasRejected)
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
	d, s := newDownstream(t, func(c *DownstreamConfig) { c.MaxPending = 2 })
	a := attach(t, d, "a", []int{0}, nil)
	b := attach(t, d, "b", []int{1}, nil)
	for iv := int64(1); iv <= 3; iv++ {
		a.volumes("a", iv, []int{0}, float64(iv))
	}
	waitFor(t, "eviction", func() bool { return d.cfg.Metrics.Evicted.Value() == 1 })
	if got := d.PendingIntervals(); got != 2 {
		t.Fatalf("pending intervals = %d, want 2", got)
	}
	// 2 and 3 survived; 1 was the oldest and is gone, so b's report for it
	// opens a fresh accumulator instead of completing it.
	b.volumes("b", 3, []int{1}, 33)
	b.volumes("b", 2, []int{1}, 22)
	waitFor(t, "intervals 3 and 2", func() bool { return len(s.indices()) == 2 })
	b.volumes("b", 1, []int{1}, 11)
	waitFor(t, "interval 1 re-opened", func() bool { return d.PendingIntervals() == 1 })
	if got := s.indices(); !reflect.DeepEqual(got, []int64{3, 2}) {
		t.Fatalf("delivered %v, want [3 2]", got)
	}
}

// TestSupersededRequestIDDropped: an answer to round 1 that arrives during
// round 2 must be dropped, not taken for round 2's.
func TestSupersededRequestIDDropped(t *testing.T) {
	d, _ := newDownstream(t, func(c *DownstreamConfig) { c.FetchRetries = 1 })
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
	if got := p.Reports["a"].Interval; got != 9 {
		t.Fatalf("pull kept the report of interval %d, want 9 (round 2's answer)", got)
	}
	if a.requests[0] == a.requests[1] {
		t.Fatalf("both rounds used request ID %d", a.requests[0])
	}
	if got := d.cfg.Metrics.PullRetries.Value(); got != 1 {
		t.Fatalf("retry counter = %d, want 1", got)
	}
}

func TestRetryRoundAsksOnlyOwnersOfUncoveredFlows(t *testing.T) {
	d, _ := newDownstream(t, func(c *DownstreamConfig) { c.FetchRetries = 2; c.RequireAll = true })
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
		if rep, ok := p.Reports["b"]; !ok || len(p.Reports) != 1 || !reflect.DeepEqual(rep, report(4, []int{2, 3})) {
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

func TestFillCachedWholeReportsWithinStaleness(t *testing.T) {
	d, _ := newDownstream(t, func(c *DownstreamConfig) { c.Degraded = DegradedPolicy{Enabled: true, MaxStaleness: 2} })
	a := attach(t, d, "a", []int{0, 1}, honest(10))
	b := attach(t, d, "b", []int{2, 3}, honest(10))
	d.Pull(nil, nil) // primes the cache: both at interval 10
	_ = b.conn.Close()
	waitFor(t, "b dropped", func() bool { return !registered(d, "b") })

	cases := []struct {
		fresh  int64 // interval a answers at; it becomes the reference point
		filled int
	}{{10, 2}, {12, 2}, {13, 0}, {8, 2}, {7, 0}}
	for _, tc := range cases {
		a.setAnswer(honest(tc.fresh))
		p := d.Pull(nil, nil)
		if filled, _ := d.FillCached(p); filled != tc.filled {
			t.Errorf("reference %d vs cache at 10, staleness 2: filled %d flows, want %d", tc.fresh, filled, tc.filled)
		}
	}
	// A partly superseded report is not usable: c now owns one of b's flows.
	attach(t, d, "c", []int{3}, honest(10))
	a.setAnswer(honest(10))
	p := d.Pull(nil, nil)
	if filled, _ := d.FillCached(p); filled != 0 {
		t.Errorf("filled %d flows from a report whose flow 3 another registrant covers", filled)
	}
}

func TestAddrAndShutdownWithoutServe(t *testing.T) {
	d, _ := newDownstream(t, nil)
	if got := d.Addr(); got != "" {
		t.Fatalf("Addr before Serve = %q, want empty", got)
	}
	d.Shutdown()
	d.Shutdown()
}
