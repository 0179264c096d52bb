package noc

// Chaos trace-lineage end-to-end test: the full ingest → monitor → NOC
// deployment with tracing and flight recorders on, plus an injected fault
// that delays one sketch response. Every alarm must leave a complete,
// reconstructable lineage: ingest.seal and monitor.update spans on each
// monitor, a noc.decide span with a child noc.fetch on the NOC,
// cross-process monitor.sketch_report spans parented under the fetch, a
// retry event on the faulted fetch round, and a flight-recorder line whose
// SPE/threshold/flags match the decision the NOC actually emitted.
//
// When CHAOS_FLIGHT_DIR is set (CI does this) the flight-recorder JSONL
// files land there instead of t.TempDir(), so a failing run leaves its
// audit trail behind as a build artifact.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"streampca/internal/faults"
	"streampca/internal/flow"
	"streampca/internal/ingest"
	"streampca/internal/monitor"
	"streampca/internal/randproj"
	"streampca/internal/trace"
	"streampca/internal/traffic"
)

// flightDir resolves where flight-recorder JSONL files go: CHAOS_FLIGHT_DIR
// when set (kept after the run, collectable as a CI artifact), a test temp
// dir otherwise.
func flightDir(t *testing.T) string {
	t.Helper()
	dir := os.Getenv("CHAOS_FLIGHT_DIR")
	if dir == "" {
		return t.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

// snapshotSpans gathers every retained span across the deployment's tracers.
func snapshotSpans(tracers ...*trace.Tracer) []trace.Record {
	var all []trace.Record
	for _, tr := range tracers {
		spans, _ := tr.Recorder().Snapshot(0)
		all = append(all, spans...)
	}
	return all
}

// spansNamed filters spans by trace id and name.
func spansNamed(spans []trace.Record, id trace.ID, name string) []trace.Record {
	var out []trace.Record
	for _, sp := range spans {
		if sp.Trace == id && sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// hasEvent reports whether the span carries an event of the given kind.
func hasEvent(sp trace.Record, kind string) bool {
	for _, ev := range sp.Events {
		if ev.Kind == kind {
			return true
		}
	}
	return false
}

func TestChaosTraceLineage(t *testing.T) {
	const (
		numMons  = 3
		total    = testWindow + 12
		anomaly  = int64(testWindow + 6)
		baseTime = int64(1_200_000_000)
		stepSec  = 300
	)
	dir := flightDir(t)

	rows := chaosRows(53, total+1)
	// Structure-breaking shifts on flows 2 (mon-c) and 6 (mon-a): big enough
	// to clear the threshold, attributable by the flight recorder's top-k.
	rows[anomaly-1][2] += 4000
	rows[anomaly-1][6] += 3000

	nocTracer := trace.New(trace.Config{Component: "noc"})
	nocFlight, err := trace.OpenFlightRecorder(filepath.Join(dir, "noc-flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nocFlight.Close() })

	cfg := chaosConfig()
	cfg.Pull.Backoff = 25 * time.Millisecond
	// Delay the first sketch response past the round timeout: the first
	// model fetch must recover via a retry round and record it on its span.
	plan := faults.MustPlan(7, faults.Rule{
		Dir: faults.DirRecv, Type: "sketch_response", Count: 1, Delay: 400 * time.Millisecond,
	})
	cfg.Faults = plan
	cfg.Trace = nocTracer
	cfg.FlightRecorder = nocFlight
	svc, decisions := startNOC(t, cfg)

	// Monitors with per-component tracers; mon-a also keeps an alarm flight
	// recorder so the broadcast leg of the lineage is audited too.
	monFlight, err := trace.OpenFlightRecorder(filepath.Join(dir, "mon-a-flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = monFlight.Close() })
	assign := make([][]int, numMons)
	for f := 0; f < testFlows; f++ {
		assign[f%numMons] = append(assign[f%numMons], f)
	}
	monTracers := make([]*trace.Tracer, numMons)
	mons := make([]*monitor.Service, numMons)
	for i := range mons {
		id := "mon-" + string(rune('a'+i))
		monTracers[i] = trace.New(trace.Config{Component: "monitor/" + id})
		mcfg := monitor.Config{
			ID:        id,
			FlowIDs:   assign[i],
			WindowLen: testWindow,
			Epsilon:   0.05,
			Sketch:    randproj.Config{Seed: testSeed, SketchLen: testSketch},
			Trace:     monTracers[i],
		}
		if i == 0 {
			mcfg.FlightRecorder = monFlight
		}
		m, err := monitor.New(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Connect(svc.Addr(), 2*time.Second); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.Close() })
		mons[i] = m
	}
	waitMonitors(t, svc, numMons)

	// One NetFlow v5 ingest pipeline per monitor (each sees only its own
	// flows), sharing the monitor's tracer so ingest.seal spans carry the
	// monitor's component label.
	tbl, err := traffic.BuildRoutingTable(numMons)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := flow.NewAggregator(tbl, numMons, nil)
	if err != nil {
		t.Fatal(err)
	}
	pipes := make([]*ingest.Pipeline, numMons)
	for i := range pipes {
		mon, mine := mons[i], assign[i]
		p, err := ingest.NewPipeline(ingest.Config{
			Aggregator: agg,
			Interval:   stepSec * time.Second,
			Sink: func(iv ingest.Interval) error {
				local := make([]float64, len(mine))
				for k, f := range mine {
					local[k] = iv.Volumes[f]
				}
				return mon.ReportInterval(iv.Seq, local)
			},
			Trace: monTracers[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		pipes[i] = p
	}

	// Feed interval k's datagrams to every pipeline; the record clock seals
	// interval k-1 network-wide (delivered as Seq k), so interval k's
	// datagrams release decision k-1.
	seqs := make([]uint32, numMons)
	feed := func(k int) {
		unixSecs := uint32(baseTime + int64(k)*stepSec)
		for i, p := range pipes {
			recs := make([]ingest.Record, 0, len(assign[i]))
			for _, f := range assign[i] {
				o, d := f/numMons, f%numMons
				src, err := traffic.RouterAddr(o, uint16(k+1))
				if err != nil {
					t.Fatal(err)
				}
				dst, err := traffic.RouterAddr(d, uint16(k+2))
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, ingest.Record{
					SrcAddr: src, DstAddr: dst, Packets: 1,
					Octets: uint32(math.Round(rows[k][f])),
				})
			}
			buf, err := ingest.AppendDatagram(nil, ingest.Header{
				UnixSecs: unixSecs, FlowSequence: seqs[i],
			}, recs)
			if err != nil {
				t.Fatal(err)
			}
			seqs[i] += uint32(len(recs))
			if err := p.HandleDatagram(buf); err != nil {
				t.Fatalf("pipeline %d interval %d: %v", i, k, err)
			}
		}
	}

	alarms := make(map[int64]Decision)
	for k := 0; k <= total; k++ {
		feed(k)
		if k == 0 {
			continue
		}
		d := nextDecision(t, decisions, int64(k))
		if d.Result.Anomalous {
			alarms[int64(k)] = d
		}
	}
	alarmDec, ok := alarms[anomaly]
	if !ok {
		t.Fatalf("injected anomaly at interval %d not flagged (alarms: %v)", anomaly, alarms)
	}
	if plan.Fired(0) != 1 {
		t.Fatalf("delay rule fired %d times, want 1 (%s)", plan.Fired(0), plan)
	}

	// --- Span lineage: every alarm's trace must be complete. ---
	spans := snapshotSpans(append([]*trace.Tracer{nocTracer}, monTracers...)...)
	for iv, d := range alarms {
		tid := trace.ForInterval(iv)
		decide := spansNamed(spans, tid, "noc.decide")
		if len(decide) != 1 {
			t.Fatalf("interval %d: %d noc.decide spans, want 1", iv, len(decide))
		}
		if !hasEvent(decide[0], "decision") || !hasEvent(decide[0], "alarm_broadcast") {
			t.Errorf("interval %d: decide span missing decision/alarm_broadcast events: %+v", iv, decide[0].Events)
		}
		fetches := spansNamed(spans, tid, "noc.fetch")
		if len(fetches) == 0 {
			t.Fatalf("interval %d: alarm lineage has no noc.fetch span", iv)
		}
		for _, f := range fetches {
			if f.Parent != decide[0].Span {
				t.Errorf("interval %d: fetch span parent %s, want decide span %s", iv, f.Parent, decide[0].Span)
			}
		}
		if got := spansNamed(spans, tid, "ingest.seal"); len(got) != numMons {
			t.Errorf("interval %d: %d ingest.seal spans, want %d", iv, len(got), numMons)
		}
		if got := spansNamed(spans, tid, "monitor.update"); len(got) != numMons {
			t.Errorf("interval %d: %d monitor.update spans, want %d", iv, len(got), numMons)
		}
		// Cross-process parenting: the monitors' sketch_report spans must
		// hang under one of this trace's fetch spans.
		reports := spansNamed(spans, tid, "monitor.sketch_report")
		if len(reports) == 0 {
			t.Fatalf("interval %d: no monitor.sketch_report spans in alarm lineage", iv)
		}
		fetchIDs := make(map[trace.SpanID]bool, len(fetches))
		for _, f := range fetches {
			fetchIDs[f.Span] = true
		}
		for _, r := range reports {
			if r.Parent == 0 || !fetchIDs[r.Parent] {
				t.Errorf("interval %d: sketch_report parent %s not a fetch span of this trace", iv, r.Parent)
			}
		}
		if d.Interval != iv {
			t.Fatalf("decision bookkeeping: %d != %d", d.Interval, iv)
		}
	}
	// The injected delay must surface as a retry event on some fetch span
	// (the first model fetch, at the warmup boundary).
	sawRetry := false
	for _, sp := range spans {
		if sp.Name == "noc.fetch" && hasEvent(sp, "retry") {
			sawRetry = true
			break
		}
	}
	if !sawRetry {
		t.Error("no noc.fetch span carries a retry event despite the injected delay")
	}

	// --- Flight recorder: the alarm's audit line must match the decision. ---
	recs := readFlightRecords(t, filepath.Join(dir, "noc-flight.jsonl"))
	var rec *FlightRecord
	for i := range recs {
		if recs[i].Interval == anomaly {
			rec = &recs[i]
			break
		}
	}
	if rec == nil {
		t.Fatalf("no flight record for alarm interval %d (%d records)", anomaly, len(recs))
	}
	if rec.Kind != "noc.decision" {
		t.Errorf("flight record kind %q", rec.Kind)
	}
	if rec.Trace != trace.ForInterval(anomaly) {
		t.Errorf("flight record trace %s, want %s", rec.Trace, trace.ForInterval(anomaly))
	}
	if !rec.Anomalous || rec.Warmup {
		t.Errorf("flight record anomalous=%t warmup=%t, want alarm", rec.Anomalous, rec.Warmup)
	}
	if rec.SPE != alarmDec.Result.Distance || rec.Threshold != alarmDec.Result.Threshold {
		t.Errorf("flight record spe=%v threshold=%v, decision had %v/%v",
			rec.SPE, rec.Threshold, alarmDec.Result.Distance, alarmDec.Result.Threshold)
	}
	if rec.Degraded || rec.ModelDegraded || rec.VectorDegraded {
		t.Errorf("flight record flags degraded (%+v) on a healthy run", rec)
	}
	if rec.Refreshed != alarmDec.Result.Refreshed {
		t.Errorf("flight record refreshed=%t, decision had %t", rec.Refreshed, alarmDec.Result.Refreshed)
	}
	if len(rec.Monitors) != numMons {
		t.Fatalf("flight record lists %d monitors, want %d", len(rec.Monitors), numMons)
	}
	for _, fm := range rec.Monitors {
		if fm.SketchAge < 0 || fm.Stale || fm.BreakerOpen {
			t.Errorf("monitor %s: age=%d stale=%t breaker=%t, want fresh post-refresh state",
				fm.ID, fm.SketchAge, fm.Stale, fm.BreakerOpen)
		}
	}
	// Attribution must finger the injected flows (2 and 6).
	got := make(map[int]bool, len(rec.TopFlows))
	for _, tf := range rec.TopFlows {
		got[tf.Flow] = true
	}
	if !got[2] || !got[6] {
		t.Errorf("top residual flows %v must include the injected flows 2 and 6", rec.TopFlows)
	}
	if len(rec.TopFlows) > 0 && rec.TopFlows[0].Flow != 2 && rec.TopFlows[0].Flow != 6 {
		t.Errorf("top residual flow %v is not one of the injected flows", rec.TopFlows[0])
	}

	// --- Broadcast leg: mon-a's alarm flight record links the same trace. ---
	deadline := time.Now().Add(3 * time.Second)
	for monFlight.Count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("mon-a never flight-recorded the alarm broadcast")
		}
		time.Sleep(10 * time.Millisecond)
	}
	data, err := os.ReadFile(filepath.Join(dir, "mon-a-flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var monRec struct {
		Kind     string   `json:"kind"`
		Monitor  string   `json:"monitor"`
		Trace    trace.ID `json:"trace"`
		Interval int64    `json:"interval"`
		SPE      float64  `json:"spe"`
	}
	found := false
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &monRec); err != nil {
			t.Fatalf("mon-a flight record: %v", err)
		}
		if monRec.Interval == anomaly {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("mon-a has no flight record for alarm interval %d", anomaly)
	}
	if monRec.Kind != "monitor.alarm_received" || monRec.Monitor != "mon-a" {
		t.Errorf("mon-a flight record kind=%q monitor=%q", monRec.Kind, monRec.Monitor)
	}
	if monRec.Trace != trace.ForInterval(anomaly) {
		t.Errorf("mon-a flight record trace %s does not match the NOC's %s",
			monRec.Trace, trace.ForInterval(anomaly))
	}
	if monRec.SPE != alarmDec.Result.Distance {
		t.Errorf("mon-a flight record spe=%v, alarm carried %v", monRec.SPE, alarmDec.Result.Distance)
	}
}

// readFlightRecords parses a JSONL flight-recorder file.
func readFlightRecords(t *testing.T, path string) []FlightRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []FlightRecord
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var rec FlightRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, rec)
	}
	return out
}
