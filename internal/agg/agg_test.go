package agg

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/obs"
	"streampca/internal/sketch"
	"streampca/internal/tier"
	"streampca/internal/transport"
	"streampca/internal/vh"
)

const (
	testSketchLen = 4
	testFlows     = 8
	testSeed      = 99
)

func TestRendezvousDeterministic(t *testing.T) {
	cands := []string{"agg-a:1", "agg-b:1", "agg-c:1"}
	a := Rendezvous("mon-1", cands)
	b := Rendezvous("mon-1", cands)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same inputs ordered differently: %v vs %v", a, b)
	}
	if len(a) != len(cands) {
		t.Fatalf("lost candidates: %v", a)
	}
	if reflect.DeepEqual(cands, []string{}) {
		t.Fatal("unreachable")
	}
	// Input must not be modified.
	if !reflect.DeepEqual(cands, []string{"agg-a:1", "agg-b:1", "agg-c:1"}) {
		t.Fatalf("input mutated: %v", cands)
	}
}

// TestRendezvousStability pins HRW's minimal-disruption property: removing
// one candidate re-places only the monitors that preferred it; every other
// monitor's first choice is unchanged.
func TestRendezvousStability(t *testing.T) {
	cands := []string{"agg-a:1", "agg-b:1", "agg-c:1", "agg-d:1"}
	const nMon = 60
	first := make(map[string]string, nMon)
	for i := 0; i < nMon; i++ {
		id := fmt.Sprintf("mon-%d", i)
		first[id] = Rendezvous(id, cands)[0]
	}
	// All candidates should win at least once over 60 monitors — a grossly
	// skewed hash would defeat the sharding.
	won := make(map[string]bool)
	for _, c := range first {
		won[c] = true
	}
	if len(won) != len(cands) {
		t.Fatalf("placement skew: only %d of %d candidates chosen: %v", len(won), len(cands), won)
	}
	// Kill agg-b; survivors' monitors must keep their assignment.
	survivors := []string{"agg-a:1", "agg-c:1", "agg-d:1"}
	for i := 0; i < nMon; i++ {
		id := fmt.Sprintf("mon-%d", i)
		got := Rendezvous(id, survivors)[0]
		if first[id] != "agg-b:1" && got != first[id] {
			t.Fatalf("monitor %s moved from %s to %s though its aggregator survived", id, first[id], got)
		}
		if first[id] == "agg-b:1" && got == "agg-b:1" {
			t.Fatalf("monitor %s still placed on the dead aggregator", id)
		}
	}
}

func testConfig() Config {
	return Config{
		ID:        "agg-test",
		Family:    sketch.FamilyRandProj,
		NumFlows:  testFlows,
		WindowLen: 16,
		SketchLen: testSketchLen,
		Seed:      testSeed,
		Pull:      tier.PullPolicy{Timeout: 300 * time.Millisecond},
		Degraded:  tier.DegradedPolicy{Enabled: true, MaxStaleness: 4},
	}
}

func newTestAgg(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// attachMonitor wires an in-memory monitor connection through the real
// handshake and waits for registration. The returned conn plays the monitor.
func attachMonitor(t *testing.T, s *Service, id string, flows []int) *transport.Conn {
	t.Helper()
	mon, srv := transport.Pipe()
	go s.down.Load().Handle(srv)
	hello := transport.Hello{
		MonitorID: id, FlowIDs: flows,
		SketchLen: s.cfg.SketchLen, WindowLen: s.cfg.WindowLen,
		Family: s.cfg.Family, Seed: s.cfg.Seed,
	}
	if s.cfg.Family == sketch.FamilyFD {
		hello.Seed = 0
	}
	if err := mon.Send(transport.Envelope{Hello: &hello}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	waitFor(t, func() bool {
		for _, m := range s.Monitors() {
			if m == id {
				return true
			}
		}
		return false
	}, "monitor "+id+" registered")
	t.Cleanup(func() { _ = mon.Close() })
	return mon
}

// attachFakeNOC gives the service an in-memory upstream and returns the
// NOC-side conn after consuming the initial Hello.
func attachFakeNOC(t *testing.T, s *Service) (*transport.Conn, transport.Hello) {
	t.Helper()
	noc, aggSide := transport.Pipe()
	// The pipe is unbuffered, so AttachNOC's synchronous Hello send needs a
	// concurrent reader.
	errCh := make(chan error, 1)
	go func() { errCh <- s.AttachNOC(aggSide) }()
	env := recvEnvelope(t, noc)
	if err := <-errCh; err != nil {
		t.Fatalf("AttachNOC: %v", err)
	}
	if env.Hello == nil {
		t.Fatalf("first upstream frame not a hello: %+v", env)
	}
	t.Cleanup(func() { _ = noc.Close() })
	return noc, *env.Hello
}

func recvEnvelope(t *testing.T, c *transport.Conn) transport.Envelope {
	t.Helper()
	type result struct {
		env transport.Envelope
		err error
	}
	ch := make(chan result, 1)
	go func() {
		env, err := c.Recv()
		ch <- result{env, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("recv: %v", r.err)
		}
		return r.env
	case <-time.After(5 * time.Second):
		t.Fatal("recv timed out")
		return transport.Envelope{}
	}
}

// response reads the fake NOC's link up to the next sketch response. The
// aggregator re-announces its flow union with a Hello whenever a monitor's
// registration changes it, and such a Hello can land before the answer.
func response(t *testing.T, noc *transport.Conn) *transport.SketchResponse {
	t.Helper()
	for {
		if env := recvEnvelope(t, noc); env.Response != nil {
			return env.Response
		}
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// randprojReport builds a valid randproj snapshot with recognizable values:
// its columns are the exact sums a monitor's are, over interval elements
// and one R′ the flows share.
func randprojReport(interval int64, flows []int) core.SketchReport {
	rep := core.SketchReport{
		Interval: interval,
		FlowIDs:  append([]int(nil), flows...),
		Family:   sketch.FamilyRandProj,
		RowSums:  [][]float64{make([]float64, testSketchLen)},
	}
	r := rep.RowSums[0]
	for k := range r {
		r[k] = float64(interval * int64(1-2*(k%2)))
	}
	for _, f := range flows {
		mean := vh.Mean(float64(int64(f)*1000*interval+7), interval)
		col := make([]float64, testSketchLen)
		for k := range col {
			col[k] = vh.Centred(float64(f*100+k)+float64(interval), r[k], mean, vh.Scale(testSketchLen))
		}
		rep.Sketches = append(rep.Sketches, col)
		rep.Means = append(rep.Means, mean)
		rep.Counts = append(rep.Counts, interval)
		rep.RowSumOf = append(rep.RowSumOf, 0)
	}
	return rep
}

// serveOneFetch answers the next downstream SketchRequest on mon with the
// given report, echoing the request id. Safe from any goroutine; the caller
// reports the returned error.
func serveOneFetch(mon *transport.Conn, monitorID string, rep core.SketchReport) error {
	env, err := mon.Recv()
	if err != nil {
		return err
	}
	if env.Request == nil {
		return fmt.Errorf("expected sketch request, got %+v", env)
	}
	resp := transport.SketchResponse{
		RequestID: env.Request.RequestID, MonitorID: monitorID, Report: rep,
	}
	return mon.Send(transport.Envelope{Response: &resp})
}

// goServe runs serveOneFetch in a goroutine, reporting failures via Errorf
// (legal off the test goroutine).
func goServe(t *testing.T, mon *transport.Conn, monitorID string, rep core.SketchReport) {
	t.Helper()
	go func() {
		if err := serveOneFetch(mon, monitorID, rep); err != nil {
			t.Errorf("serveOneFetch(%s): %v", monitorID, err)
		}
	}()
}

func TestHelloCarriesAggregatorRoleAndUnion(t *testing.T) {
	s := newTestAgg(t, testConfig())
	m1 := attachMonitor(t, s, "m1", []int{0, 2})
	defer m1.Close()
	m2 := attachMonitor(t, s, "m2", []int{5, 1})
	defer m2.Close()
	_, hello := attachFakeNOC(t, s)
	if hello.Role != transport.RoleAggregator {
		t.Fatalf("role = %v, want aggregator", hello.Role)
	}
	if hello.MonitorID != "agg-test" {
		t.Fatalf("upstream id = %q", hello.MonitorID)
	}
	if want := []int{0, 1, 2, 5}; !reflect.DeepEqual(hello.FlowIDs, want) {
		t.Fatalf("announced union = %v, want %v", hello.FlowIDs, want)
	}
	if hello.Seed != testSeed || hello.SketchLen != testSketchLen {
		t.Fatalf("config echo wrong: %+v", hello)
	}
}

func TestVolumeMergeForward(t *testing.T) {
	s := newTestAgg(t, testConfig())
	m1 := attachMonitor(t, s, "m1", []int{0, 1})
	m2 := attachMonitor(t, s, "m2", []int{2, 3})
	noc, _ := attachFakeNOC(t, s)

	send := func(c *transport.Conn, id string, iv int64, flows []int, vols []float64) {
		t.Helper()
		v := transport.VolumeReport{MonitorID: id, Interval: iv, FlowIDs: flows, Volumes: vols}
		if err := c.Send(transport.Envelope{Volume: &v}); err != nil {
			t.Fatalf("volume send: %v", err)
		}
	}
	// Half an interval: nothing may be forwarded yet.
	send(m1, "m1", 1, []int{0, 1}, []float64{10, 11})
	waitFor(t, func() bool {
		return s.down.Load().PendingIntervals() == 1
	}, "partial interval buffered")
	if got := s.met.volumeForwards.Value(); got != 0 {
		t.Fatalf("forwarded a partial interval (%d forwards)", got)
	}
	// Second half completes it.
	send(m2, "m2", 1, []int{2, 3}, []float64{12, 13})
	env := recvEnvelope(t, noc)
	if env.Volume == nil {
		t.Fatalf("expected merged volume report, got %+v", env)
	}
	if env.Volume.MonitorID != "agg-test" || env.Volume.Interval != 1 {
		t.Fatalf("merged header wrong: %+v", env.Volume)
	}
	// The forward covers the union the Hello announced, so it leaves the
	// list implicit: the volumes come in the announced order.
	if len(env.Volume.FlowIDs) != 0 {
		t.Fatalf("merged flows = %v, want the announced union left implicit", env.Volume.FlowIDs)
	}
	if want := []float64{10, 11, 12, 13}; !reflect.DeepEqual(env.Volume.Volumes, want) {
		t.Fatalf("merged volumes = %v, want %v", env.Volume.Volumes, want)
	}
}

// TestUnionSwapNeverReattributesVolumes: an aggregator whose union is
// swapped for another of the same size forwards, for the interval its
// departed monitors reported, a list unlike the one it last announced, so
// the NOC, a real downstream tier reading implicit lists against the
// aggregator's last Hello, attributes every volume to the flow its monitor
// reported it for.
func TestUnionSwapNeverReattributesVolumes(t *testing.T) {
	s := newTestAgg(t, testConfig())
	var mu sync.Mutex
	var got []tier.Interval
	noc, err := tier.NewDownstream(tier.DownstreamConfig{
		Params: s.Params(),
		Pull:   tier.PullPolicy{Timeout: 300 * time.Millisecond},
		Metrics: tier.Metrics{
			Registrants: &obs.Gauge{}, Rejected: &obs.Counter{}, Evicted: &obs.Counter{}, PullRetries: &obs.Counter{},
			BreakerOpen: &obs.Gauge{}, BreakerOpens: &obs.Counter{}, DroppedForeign: &obs.Counter{}, DroppedMismatch: &obs.Counter{},
		},
		OnInterval: func(iv tier.Interval) {
			mu.Lock()
			got = append(got, tier.Interval{Index: iv.Index, Volumes: slices.Clone(iv.Volumes), Seen: slices.Clone(iv.Seen)})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(noc.Shutdown)
	m1 := attachMonitor(t, s, "m1", []int{0, 1})
	m2 := attachMonitor(t, s, "m2", []int{2, 3})
	m3 := attachMonitor(t, s, "m3", []int{4})
	up, aggSide := transport.Pipe()
	go noc.Handle(up)
	if err := s.AttachNOC(aggSide); err != nil {
		t.Fatal(err)
	}
	owns := func(want ...int) func() bool {
		return func() bool { return slices.Equal(noc.OwnedFlows(), want) }
	}
	waitFor(t, owns(0, 1, 2, 3, 4), "the NOC holding the aggregator's union")

	send := func(c *transport.Conn, id string, flows []int, vols ...float64) {
		t.Helper()
		v := transport.VolumeReport{MonitorID: id, Interval: 7, FlowIDs: flows, Volumes: vols}
		if err := c.Send(transport.Envelope{Volume: &v}); err != nil {
			t.Fatal(err)
		}
	}
	send(m2, "m2", []int{2, 3}, 20, 30)
	send(m3, "m3", []int{4}, 40)
	waitFor(t, func() bool { return s.down.Load().PendingIntervals() == 1 }, "interval 7 pending on m1")
	// m2 leaves: the union shrinks to {0, 1, 4}, announced while interval 7
	// still waits on m1. m1 leaves: interval 7 completes over {2, 3, 4},
	// as long as the union last announced.
	_ = m2.Close()
	waitFor(t, owns(0, 1, 4), "the NOC holding the shrunk union")
	_ = m1.Close()
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 1 }, "interval 7 at the NOC")
	iv := got[0]
	for f, want := range map[int]float64{2: 20, 3: 30, 4: 40} {
		if !iv.Seen[f] || iv.Volumes[f] != want {
			t.Errorf("flow %d: seen %t, volume %v, want %v", f, iv.Seen[f], iv.Volumes[f], want)
		}
	}
	for _, f := range []int{0, 1} {
		if iv.Seen[f] {
			t.Errorf("flow %d, which no report carried, was attributed %v", f, iv.Volumes[f])
		}
	}
}

func TestFetchMergesMonitorSketches(t *testing.T) {
	s := newTestAgg(t, testConfig())
	m1 := attachMonitor(t, s, "m1", []int{0, 1})
	m2 := attachMonitor(t, s, "m2", []int{4, 5})
	noc, _ := attachFakeNOC(t, s)

	if err := noc.Send(transport.Envelope{Request: &transport.SketchRequest{RequestID: 42}}); err != nil {
		t.Fatalf("request send: %v", err)
	}
	r1 := randprojReport(3, []int{0, 1})
	r2 := randprojReport(3, []int{4, 5})
	goServe(t, m1, "m1", r1)
	goServe(t, m2, "m2", r2)

	env := recvEnvelope(t, noc)
	if env.Response == nil {
		t.Fatalf("expected merged response, got %+v", env)
	}
	resp := env.Response
	if resp.RequestID != 42 || resp.MonitorID != "agg-test" {
		t.Fatalf("response header wrong: id %d monitor %q", resp.RequestID, resp.MonitorID)
	}
	if resp.Degraded || resp.StaleFlows != 0 {
		t.Fatalf("clean merge flagged degraded: %+v", resp)
	}
	if want := []int{0, 1, 4, 5}; !reflect.DeepEqual(resp.Report.FlowIDs, want) {
		t.Fatalf("merged flows = %v, want %v", resp.Report.FlowIDs, want)
	}
	if resp.Report.Interval != 3 {
		t.Fatalf("merged interval = %d, want 3", resp.Report.Interval)
	}
	// Column union must be byte-exact: flow 4's column comes straight from m2.
	if !reflect.DeepEqual(resp.Report.Sketches[2], r2.Sketches[0]) {
		t.Fatalf("flow 4 column altered by merge: %v vs %v", resp.Report.Sketches[2], r2.Sketches[0])
	}
	if err := resp.Report.Validate(testSketchLen); err != nil {
		t.Fatalf("merged report invalid: %v", err)
	}
}

func TestFetchSubstitutesCachedSnapshot(t *testing.T) {
	cfg := testConfig()
	cfg.Pull.Timeout = 150 * time.Millisecond
	s := newTestAgg(t, cfg)
	m1 := attachMonitor(t, s, "m1", []int{0, 1})
	m2 := attachMonitor(t, s, "m2", []int{4, 5})
	noc, _ := attachFakeNOC(t, s)

	// First pull: both respond; the cache now holds both snapshots.
	if err := noc.Send(transport.Envelope{Request: &transport.SketchRequest{RequestID: 1}}); err != nil {
		t.Fatal(err)
	}
	goServe(t, m1, "m1", randprojReport(2, []int{0, 1}))
	goServe(t, m2, "m2", randprojReport(2, []int{4, 5}))
	if resp := response(t, noc); resp.Degraded {
		t.Fatalf("warm-up pull degraded: %+v", resp)
	}

	// Second pull: m2 reads the request (the pipe is unbuffered, so someone
	// must — over TCP the kernel buffer would) but never answers. Its cached
	// interval-2 snapshot (age 1 against m1's fresh interval-3 report,
	// within MaxStaleness 4) fills in.
	go func() { _, _ = m2.Recv() }()
	if err := noc.Send(transport.Envelope{Request: &transport.SketchRequest{RequestID: 2}}); err != nil {
		t.Fatal(err)
	}
	goServe(t, m1, "m1", randprojReport(3, []int{0, 1}))
	resp := response(t, noc)
	if !resp.Degraded || resp.StaleFlows != 2 {
		t.Fatalf("degraded = %v stale = %d, want true/2", resp.Degraded, resp.StaleFlows)
	}
	if want := []int{0, 1, 4, 5}; !reflect.DeepEqual(resp.Report.FlowIDs, want) {
		t.Fatalf("degraded merge flows = %v, want %v", resp.Report.FlowIDs, want)
	}
	if resp.Report.Interval != 3 {
		t.Fatalf("degraded merge interval = %d, want 3 (max of live + cached)", resp.Report.Interval)
	}
	// The cached columns keep their counts and R′, so they cross to the NOC
	// as integer sums (only those decode with an R′), bit for bit.
	cached := randprojReport(2, []int{4, 5})
	for i, j := range []int{2, 3} {
		got := &resp.Report
		if got.RowSum(j) == nil || !reflect.DeepEqual(got.RowSum(j), cached.RowSums[0]) {
			t.Fatalf("flow %d came without its R′ %v: %+v", got.FlowIDs[j], cached.RowSums[0], got)
		}
		if !reflect.DeepEqual(got.Sketches[j], cached.Sketches[i]) || got.Means[j] != cached.Means[i] || got.Counts[j] != cached.Counts[i] {
			t.Fatalf("flow %d = %v μ %v c %d, want the cached %v μ %v c %d", got.FlowIDs[j],
				got.Sketches[j], got.Means[j], got.Counts[j], cached.Sketches[i], cached.Means[i], cached.Counts[i])
		}
	}
	_ = m2 // kept open but silent
}

// TestDegradedMergeFillsPartlyReclaimedMonitor: a dead monitor whose flows
// were partly claimed again is not dropped whole — the aggregator fills the
// unclaimed randproj column from cache per flow, as the NOC does.
func TestDegradedMergeFillsPartlyReclaimedMonitor(t *testing.T) {
	cfg := testConfig()
	cfg.Pull.Timeout = 150 * time.Millisecond
	s := newTestAgg(t, cfg)
	m1 := attachMonitor(t, s, "m1", []int{0, 1})
	m2 := attachMonitor(t, s, "m2", []int{4, 5})
	noc, _ := attachFakeNOC(t, s)

	if err := noc.Send(transport.Envelope{Request: &transport.SketchRequest{RequestID: 1}}); err != nil {
		t.Fatal(err)
	}
	goServe(t, m1, "m1", randprojReport(2, []int{0, 1}))
	goServe(t, m2, "m2", randprojReport(2, []int{4, 5}))
	if resp := response(t, noc); resp.Degraded {
		t.Fatalf("warm-up pull degraded: %+v", resp)
	}

	// m2 dies and m3 claims flow 5 of its two.
	_ = m2.Close()
	waitFor(t, func() bool { return len(s.Monitors()) == 1 }, "m2 dropped")
	m3 := attachMonitor(t, s, "m3", []int{5})
	if err := noc.Send(transport.Envelope{Request: &transport.SketchRequest{RequestID: 2}}); err != nil {
		t.Fatal(err)
	}
	goServe(t, m1, "m1", randprojReport(3, []int{0, 1}))
	goServe(t, m3, "m3", randprojReport(3, []int{5}))
	resp := response(t, noc)
	if !resp.Degraded || resp.StaleFlows != 1 {
		t.Fatalf("degraded = %v stale = %d, want true/1 (flow 4 from m2's cached column)", resp.Degraded, resp.StaleFlows)
	}
	if want := []int{0, 1, 4, 5}; !reflect.DeepEqual(resp.Report.FlowIDs, want) {
		t.Fatalf("merged flows = %v, want %v", resp.Report.FlowIDs, want)
	}
	if want := randprojReport(2, []int{4}).Sketches[0]; !reflect.DeepEqual(resp.Report.Sketches[2], want) {
		t.Fatalf("flow 4 column = %v, want m2's cached %v", resp.Report.Sketches[2], want)
	}
	if want := randprojReport(3, []int{5}).Sketches[0]; !reflect.DeepEqual(resp.Report.Sketches[3], want) {
		t.Fatalf("flow 5 column = %v, want m3's fresh %v", resp.Report.Sketches[3], want)
	}
}

func TestRegisterRejections(t *testing.T) {
	s := newTestAgg(t, testConfig())
	good := attachMonitor(t, s, "good", []int{0, 1})
	defer good.Close()

	cases := []struct {
		name  string
		hello transport.Hello
	}{
		{"family mismatch", transport.Hello{MonitorID: "bad", FlowIDs: []int{6}, SketchLen: testSketchLen, WindowLen: 16, Family: sketch.FamilyFD}},
		{"sketch len mismatch", transport.Hello{MonitorID: "bad", FlowIDs: []int{6}, SketchLen: testSketchLen + 1, WindowLen: 16, Family: sketch.FamilyRandProj, Seed: testSeed}},
		{"window mismatch", transport.Hello{MonitorID: "bad", FlowIDs: []int{6}, SketchLen: testSketchLen, WindowLen: 99, Family: sketch.FamilyRandProj, Seed: testSeed}},
		{"seed mismatch", transport.Hello{MonitorID: "bad", FlowIDs: []int{6}, SketchLen: testSketchLen, WindowLen: 16, Family: sketch.FamilyRandProj, Seed: testSeed + 1}},
		{"flow out of range", transport.Hello{MonitorID: "bad", FlowIDs: []int{testFlows}, SketchLen: testSketchLen, WindowLen: 16, Family: sketch.FamilyRandProj, Seed: testSeed}},
		{"flow conflict", transport.Hello{MonitorID: "bad", FlowIDs: []int{1}, SketchLen: testSketchLen, WindowLen: 16, Family: sketch.FamilyRandProj, Seed: testSeed}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mon, srv := transport.Pipe()
			defer mon.Close()
			go s.down.Load().Handle(srv)
			if err := mon.Send(transport.Envelope{Hello: &tc.hello}); err != nil {
				t.Fatal(err)
			}
			env := recvEnvelope(t, mon)
			if env.Error == nil {
				t.Fatalf("expected rejection, got %+v", env)
			}
		})
	}
	if got := s.Monitors(); len(got) != 1 || got[0] != "good" {
		t.Fatalf("registry polluted by rejects: %v", got)
	}
}

func TestShardMapPushedOnRegistration(t *testing.T) {
	cfg := testConfig()
	cfg.Peers = []string{"a:1", "b:1", "c:1"}
	cfg.ShardEpoch = 7
	s := newTestAgg(t, cfg)
	mon := attachMonitor(t, s, "m1", []int{0})
	env := recvEnvelope(t, mon)
	if env.Shards == nil {
		t.Fatalf("expected shard map after registration, got %+v", env)
	}
	if !reflect.DeepEqual(env.Shards.Aggregators, cfg.Peers) || env.Shards.Epoch != 7 {
		t.Fatalf("shard map = %+v, want %v epoch 7", env.Shards, cfg.Peers)
	}
}

func TestUnionChangeTriggersReHello(t *testing.T) {
	s := newTestAgg(t, testConfig())
	m1 := attachMonitor(t, s, "m1", []int{0, 1})
	defer m1.Close()
	noc, hello := attachFakeNOC(t, s)
	if want := []int{0, 1}; !reflect.DeepEqual(hello.FlowIDs, want) {
		t.Fatalf("initial union %v", hello.FlowIDs)
	}
	// A second monitor joining must re-announce the grown union upstream.
	m2 := attachMonitor(t, s, "m2", []int{6, 7})
	env := recvEnvelope(t, noc)
	if env.Hello == nil {
		t.Fatalf("expected re-hello, got %+v", env)
	}
	if want := []int{0, 1, 6, 7}; !reflect.DeepEqual(env.Hello.FlowIDs, want) {
		t.Fatalf("re-hello union = %v, want %v", env.Hello.FlowIDs, want)
	}
	// The monitor leaving must shrink it again.
	_ = m2.Close()
	env = recvEnvelope(t, noc)
	if env.Hello == nil {
		t.Fatalf("expected shrink re-hello, got %+v", env)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(env.Hello.FlowIDs, want) {
		t.Fatalf("post-drop union = %v, want %v", env.Hello.FlowIDs, want)
	}
}

// TestMonitorDropCompletesPendingInterval pins the flush path: an interval
// stuck waiting on a monitor that dies becomes complete the moment its flows
// leave the union, and the merged report goes upstream.
func TestMonitorDropCompletesPendingInterval(t *testing.T) {
	s := newTestAgg(t, testConfig())
	m1 := attachMonitor(t, s, "m1", []int{0, 1})
	m2 := attachMonitor(t, s, "m2", []int{2})
	noc, _ := attachFakeNOC(t, s)

	v := transport.VolumeReport{MonitorID: "m1", Interval: 5, FlowIDs: []int{0, 1}, Volumes: []float64{1, 2}}
	if err := m1.Send(transport.Envelope{Volume: &v}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return s.down.Load().PendingIntervals() == 1
	}, "interval 5 pending")

	_ = m2.Close() // m2 never reports; its departure releases flow 2
	var vol *transport.VolumeReport
	for vol == nil {
		env := recvEnvelope(t, noc)
		if env.Volume != nil {
			vol = env.Volume
		}
		// A shrink re-hello may arrive before or after the flush.
	}
	if vol.Interval != 5 || !reflect.DeepEqual(vol.FlowIDs, []int{0, 1}) {
		t.Fatalf("flushed report = %+v", vol)
	}
}

func TestAlarmRebroadcast(t *testing.T) {
	s := newTestAgg(t, testConfig())
	m1 := attachMonitor(t, s, "m1", []int{0})
	m2 := attachMonitor(t, s, "m2", []int{1})
	noc, _ := attachFakeNOC(t, s)

	a := transport.Alarm{Interval: 9, Distance: 3.5, Threshold: 1.25}
	if err := noc.Send(transport.Envelope{Alarm: &a}); err != nil {
		t.Fatal(err)
	}
	// The relay sends to the monitors one after the other in no fixed order
	// and the pipes are unbuffered, so both must be read at once.
	got := make(chan transport.Envelope, 2)
	for _, mon := range []*transport.Conn{m1, m2} {
		go func() {
			env, _ := mon.Recv()
			got <- env
		}()
	}
	for range 2 {
		select {
		case env := <-got:
			if env.Alarm == nil {
				t.Fatalf("expected relayed alarm, got %+v", env)
			}
			if env.Alarm.Interval != 9 || env.Alarm.Distance != 3.5 {
				t.Fatalf("alarm mangled: %+v", env.Alarm)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("relayed alarm never arrived")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{ID: "a", Family: sketch.FamilyRandProj, NumFlows: 0, WindowLen: 1, SketchLen: 1},
		{ID: "a", Family: sketch.FamilyRandProj, NumFlows: 1, WindowLen: 0, SketchLen: 1},
		{ID: "a", Family: sketch.FamilyRandProj, NumFlows: 1, WindowLen: 1, SketchLen: 0},
		{ID: "a", Family: sketch.Family(99), NumFlows: 1, WindowLen: 1, SketchLen: 1},
		{ID: "a", Family: sketch.FamilyRandProj, NumFlows: 1, WindowLen: 1, SketchLen: 1, Degraded: tier.DegradedPolicy{Enabled: true, MaxStaleness: -1}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestBreakerSkipsMonitorThatTimesOut pins what the aggregator gains from the
// shared tier core: a monitor that times out three pulls in a row (the NOC's
// default threshold — the aggregator has no knob for it) is not asked on the
// fourth, and the merged response stays covered from the report cache, tagged
// Degraded.
func TestBreakerSkipsMonitorThatTimesOut(t *testing.T) {
	cfg := testConfig()
	cfg.Pull.Timeout = 60 * time.Millisecond
	s := newTestAgg(t, cfg)
	m1 := attachMonitor(t, s, "m1", []int{0, 1})
	m2 := attachMonitor(t, s, "m2", []int{4, 5})
	noc, _ := attachFakeNOC(t, s)

	pull := func(id uint64, interval int64) *transport.SketchResponse {
		t.Helper()
		if err := noc.Send(transport.Envelope{Request: &transport.SketchRequest{RequestID: id}}); err != nil {
			t.Fatal(err)
		}
		goServe(t, m1, "m1", randprojReport(interval, []int{0, 1}))
		env := recvEnvelope(t, noc)
		if env.Response == nil {
			t.Fatalf("pull %d: expected a merged response, got %+v", id, env)
		}
		return env.Response
	}

	// Warm-up: both answer, so m2 has a cached snapshot to stand in later.
	goServe(t, m2, "m2", randprojReport(1, []int{4, 5}))
	if resp := pull(1, 1); resp.Degraded {
		t.Fatalf("warm-up pull degraded: %+v", resp)
	}
	// From here on m2 reads its requests and answers none.
	var m2Asked atomic.Int64
	go func() {
		for {
			env, err := m2.Recv()
			if err != nil {
				return
			}
			if env.Request != nil {
				m2Asked.Add(1)
			}
		}
	}()
	for i := uint64(2); i <= 4; i++ {
		if resp := pull(i, 1); !resp.Degraded || resp.StaleFlows != 2 {
			t.Fatalf("pull %d with m2 mute: degraded=%t stale=%d, want true/2", i, resp.Degraded, resp.StaleFlows)
		}
	}
	if got := m2Asked.Load(); got != 3 {
		t.Fatalf("m2 asked %d times over three pulls, want 3", got)
	}
	if got := s.met.breakerOpen.Value(); got != 1 {
		t.Fatalf("breaker_open gauge = %v after three timeouts, want 1", got)
	}
	start := time.Now()
	resp := pull(5, 1)
	if got := m2Asked.Load(); got != 3 {
		t.Fatalf("m2 asked again (%d requests) with its breaker open", got)
	}
	if !resp.Degraded || resp.StaleFlows != 2 {
		t.Fatalf("fourth pull: degraded=%t stale=%d, want true/2", resp.Degraded, resp.StaleFlows)
	}
	if want := []int{0, 1, 4, 5}; !reflect.DeepEqual(resp.Report.FlowIDs, want) {
		t.Fatalf("fourth pull covers %v, want %v", resp.Report.FlowIDs, want)
	}
	if took := time.Since(start); took >= cfg.Pull.Timeout {
		t.Fatalf("fourth pull took %v: it still waited out m2's timeout", took)
	}
}

// TestOverlappingPullsShareTheKeptResponse: upstream pulls that overlap at
// one aggregator each get their own downstream round, and each is merged
// into the one response the service keeps and sent before the next merge
// may overwrite it. Every monitor answers downstream request d with columns
// derived from d, so an answer built from another pull's columns, or a
// buffer reused while a pull still reads it, shows as a merged response
// that is not one round's merge. ci.sh runs it under -race, ten times.
func TestOverlappingPullsShareTheKeptResponse(t *testing.T) {
	const pulls = 16
	s := newTestAgg(t, testConfig())
	shards := map[string][]int{"m1": {0, 3}, "m2": {1, 4, 6}, "m3": {2, 5, 7}}
	for id, flows := range shards {
		mon := attachMonitor(t, s, id, flows)
		go func() {
			for {
				env, err := mon.Recv()
				if err != nil {
					return
				}
				if env.Request == nil {
					continue
				}
				resp := transport.SketchResponse{RequestID: env.Request.RequestID, MonitorID: id,
					Report: randprojReport(int64(env.Request.RequestID), flows)}
				if mon.Send(transport.Envelope{Response: &resp}) != nil {
					return
				}
			}
		}()
	}
	noc, _ := attachFakeNOC(t, s)
	for i := uint64(1); i <= pulls; i++ {
		if err := noc.Send(transport.Envelope{Request: &transport.SketchRequest{RequestID: 1000 + i}}); err != nil {
			t.Fatal(err)
		}
	}
	answered := map[uint64]bool{}
	for range pulls {
		resp := recvEnvelope(t, noc).Response
		if resp == nil {
			t.Fatal("expected a merged response")
		}
		if answered[resp.RequestID] {
			t.Fatalf("request %d answered twice", resp.RequestID)
		}
		answered[resp.RequestID] = true
		d := resp.Report.Interval
		want, err := sketch.MergeColumns([]core.SketchReport{
			randprojReport(d, shards["m1"]), randprojReport(d, shards["m2"]), randprojReport(d, shards["m3"]),
		}, testSketchLen)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Report, want) {
			t.Fatalf("request %d: the merged response is not round %d's merge:\n got %+v\nwant %+v",
				resp.RequestID, d, resp.Report, want)
		}
	}
	if got := s.met.fetches.Value(); got != pulls {
		t.Fatalf("%d pulls served, want %d", got, pulls)
	}
}
