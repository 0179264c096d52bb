package agg

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/sketch"
	"streampca/internal/transport"
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
		ID:           "agg-test",
		Family:       sketch.FamilyRandProj,
		NumFlows:     testFlows,
		WindowLen:    16,
		SketchLen:    testSketchLen,
		Seed:         testSeed,
		FetchTimeout: 300 * time.Millisecond,
		Degraded:     DegradedPolicy{Enabled: true, MaxStaleness: 4},
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
	go s.down.Handle(srv)
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

// randprojReport builds a valid randproj snapshot with recognizable values.
func randprojReport(interval int64, flows []int) core.SketchReport {
	rep := core.SketchReport{
		Interval: interval,
		FlowIDs:  append([]int(nil), flows...),
		Family:   sketch.FamilyRandProj,
	}
	for _, f := range flows {
		col := make([]float64, testSketchLen)
		for j := range col {
			col[j] = float64(f*100+j) + float64(interval)/10
		}
		rep.Sketches = append(rep.Sketches, col)
		rep.Means = append(rep.Means, float64(f))
		rep.Counts = append(rep.Counts, interval)
		rep.Buckets = append(rep.Buckets, 1)
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
		return s.down.PendingIntervals() == 1
	}, "partial interval buffered")
	if got := s.Stats().VolumeForwards; got != 0 {
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
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(env.Volume.FlowIDs, want) {
		t.Fatalf("merged flows = %v, want %v", env.Volume.FlowIDs, want)
	}
	if want := []float64{10, 11, 12, 13}; !reflect.DeepEqual(env.Volume.Volumes, want) {
		t.Fatalf("merged volumes = %v, want %v", env.Volume.Volumes, want)
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
	cfg.FetchTimeout = 150 * time.Millisecond
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
	if env := recvEnvelope(t, noc); env.Response == nil || env.Response.Degraded {
		t.Fatalf("warm-up pull failed: %+v", env)
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
	env := recvEnvelope(t, noc)
	if env.Response == nil {
		t.Fatalf("expected degraded response, got %+v", env)
	}
	if !env.Response.Degraded || env.Response.StaleFlows != 2 {
		t.Fatalf("degraded = %v stale = %d, want true/2", env.Response.Degraded, env.Response.StaleFlows)
	}
	if want := []int{0, 1, 4, 5}; !reflect.DeepEqual(env.Response.Report.FlowIDs, want) {
		t.Fatalf("degraded merge flows = %v, want %v", env.Response.Report.FlowIDs, want)
	}
	if env.Response.Report.Interval != 3 {
		t.Fatalf("degraded merge interval = %d, want 3 (max of live + cached)", env.Response.Report.Interval)
	}
	_ = m2 // kept open but silent
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
			go s.down.Handle(srv)
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
		return s.down.PendingIntervals() == 1
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
		{ID: "a", Family: sketch.FamilyRandProj, NumFlows: 1, WindowLen: 1, SketchLen: 1, FetchRetries: -1},
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
	cfg.FetchTimeout = 60 * time.Millisecond
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
	if took := time.Since(start); took >= cfg.FetchTimeout {
		t.Fatalf("fourth pull took %v: it still waited out m2's timeout", took)
	}
}
