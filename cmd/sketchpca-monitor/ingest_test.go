package main

import (
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/faults"
	"streampca/internal/flow"
	"streampca/internal/ingest"
	"streampca/internal/monitor"
	"streampca/internal/noc"
	"streampca/internal/randproj"
	"streampca/internal/traffic"
)

const (
	e2eRouters   = 3
	e2eFlows     = e2eRouters * e2eRouters
	e2eIntervals = 24
	e2eWindow    = 8
	e2eSketch    = 6
	e2eSeed      = 5
)

func e2eTrace(t testing.TB) *traffic.Trace {
	t.Helper()
	tr, err := traffic.Generate(traffic.GeneratorConfig{
		Routers:      []string{"A", "B", "C"},
		NumIntervals: e2eIntervals,
		Seed:         11,
		TotalVolume:  9e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func e2eNOC(t testing.TB) (*noc.Service, chan noc.Decision) {
	t.Helper()
	decisions := make(chan noc.Decision, e2eIntervals*2)
	svc, err := noc.New(noc.Config{
		Detector: core.DetectorConfig{
			NumFlows: e2eFlows, WindowLen: e2eWindow, SketchLen: e2eSketch,
			Alpha: 0.01, FixedRank: 1,
		},
		Seed:       e2eSeed,
		OnDecision: func(d noc.Decision) { decisions <- d },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return svc, decisions
}

// collectInto drains decisions from ch into out until out holds n distinct
// intervals.
func collectInto(t testing.TB, ch chan noc.Decision, out map[int64]noc.Decision, n int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case d := <-ch:
			out[d.Interval] = d
		case <-deadline:
			t.Fatalf("only %d/%d decisions arrived", len(out), n)
		}
	}
}

func collectDecisions(t testing.TB, ch chan noc.Decision, n int) map[int64]noc.Decision {
	t.Helper()
	out := make(map[int64]noc.Decision, n)
	collectInto(t, ch, out, n)
	return out
}

// freeUDPAddr reserves an ephemeral UDP port and releases it for the caller.
// The tiny reuse race is acceptable in tests.
func freeUDPAddr(t testing.TB) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

func freeTCPAddr(t testing.TB) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// waitCollectorReady sends undecodable probe datagrams at the collector until
// the daemon's decode-error counter moves, proving the UDP socket is bound
// and the ingest pipeline is consuming. UDP "connects" never fail, so
// without this probe the first real datagrams could race the bind and be
// lost silently.
func waitCollectorReady(t testing.TB, conn net.Conn, metricsAddr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _ = conn.Write([]byte("probe"))
		resp, err := http.Get("http://" + metricsAddr + "/metrics")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				for _, line := range strings.Split(string(body), "\n") {
					if !strings.HasPrefix(line, "streampca_ingest_decode_errors_total") {
						continue
					}
					fields := strings.Fields(line)
					if v, perr := strconv.ParseFloat(fields[len(fields)-1], 64); perr == nil && v > 0 {
						return
					}
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("collector never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitDecision blocks until a decision for exactly interval appears on ch
// and records it in out.
func waitDecision(t testing.TB, ch chan noc.Decision, out map[int64]noc.Decision, interval int64) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		if _, ok := out[interval]; ok {
			return
		}
		select {
		case d := <-ch:
			out[d.Interval] = d
		case <-deadline:
			t.Fatalf("decision for interval %d never arrived", interval)
		}
	}
}

// exportByInterval renders the trace as NetFlow datagrams grouped by source
// interval (ExportTrace flushes at interval boundaries, so no datagram
// spans two).
func exportByInterval(t testing.TB, tr *traffic.Trace) [][][]byte {
	t.Helper()
	out := make([][][]byte, tr.NumIntervals())
	const base = 1_200_000_000
	var d ingest.Datagram
	if err := ingest.ExportTrace(tr, ingest.ExportOptions{}, func(buf []byte) error {
		if err := ingest.DecodeDatagram(buf, &d); err != nil {
			return err
		}
		i := (int64(d.Header.UnixSecs) - base) / 300
		out[i] = append(out[i], append([]byte(nil), buf...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunIngestMatchesDirectFeed is the end-to-end equivalence check: the
// same trace fed (a) as NetFlow v5 datagrams over UDP through the ingest
// pipeline and (b) as CSV rows through the classic stdin path must produce
// the same alarm decisions at the NOC — the export rounds volumes to whole
// bytes, so the CSV side feeds the same rounded values. Both feeds run in
// lockstep (send an interval, await its decision) because the NOC's lazy
// sketch pull captures the monitor's current state: a free-running feed
// would let the sketch race ahead of the interval under decision, making
// the outcome pacing-dependent rather than data-dependent.
func TestRunIngestMatchesDirectFeed(t *testing.T) {
	tr := e2eTrace(t)

	// (a) NetFlow replay through run()'s ingest mode.
	nocA, decA := e2eNOC(t)
	defer nocA.Shutdown()
	listen := freeUDPAddr(t)
	metricsAddr := freeTCPAddr(t)
	sig := make(chan os.Signal, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{
			"-noc", nocA.Addr(),
			"-id", "ingest-e2e",
			"-flows", "0,1,2,3,4,5,6,7,8",
			"-window", itoa(e2eWindow),
			"-sketch", itoa(e2eSketch),
			"-seed", itoa(e2eSeed),
			"-ingest-listen", listen,
			"-routers", itoa(e2eRouters),
			"-interval", "300s",
			"-metrics-addr", metricsAddr,
		}, strings.NewReader(""), sig)
	}()

	conn, err := net.Dial("udp", listen)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitCollectorReady(t, conn, metricsAddr)
	// Interval i seals (and is decided as interval i, 1-based) once interval
	// i+1's datagrams advance the record-clock watermark; the final interval
	// seals partial during graceful shutdown.
	gotA := make(map[int64]noc.Decision, e2eIntervals)
	for i, dgrams := range exportByInterval(t, tr) {
		for _, d := range dgrams {
			if _, err := conn.Write(d); err != nil {
				t.Fatal(err)
			}
		}
		if i >= 1 {
			waitDecision(t, decA, gotA, int64(i))
		}
	}
	sig <- os.Interrupt
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	waitDecision(t, decA, gotA, e2eIntervals)

	// (b) The same rounded volumes through the CSV stdin path.
	nocB, decB := e2eNOC(t)
	defer nocB.Shutdown()
	pr, pw := io.Pipe()
	runErrB := make(chan error, 1)
	go func() {
		runErrB <- run([]string{
			"-noc", nocB.Addr(),
			"-id", "csv-e2e",
			"-flows", "0,1,2,3,4,5,6,7,8",
			"-window", itoa(e2eWindow),
			"-sketch", itoa(e2eSketch),
			"-seed", itoa(e2eSeed),
		}, pr, nil)
	}()
	gotB := make(map[int64]noc.Decision, e2eIntervals)
	for i := 0; i < tr.NumIntervals(); i++ {
		var sb strings.Builder
		sb.WriteString(itoa(i))
		for _, v := range tr.Volumes.RowView(i) {
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatFloat(math.Round(v), 'f', -1, 64))
		}
		sb.WriteByte('\n')
		if _, err := io.WriteString(pw, sb.String()); err != nil {
			t.Fatal(err)
		}
		waitDecision(t, decB, gotB, int64(i+1))
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-runErrB; err != nil {
		t.Fatal(err)
	}

	for i := int64(1); i <= e2eIntervals; i++ {
		a, okA := gotA[i]
		b, okB := gotB[i]
		if !okA || !okB {
			t.Fatalf("interval %d missing (ingest=%v csv=%v)", i, okA, okB)
		}
		for j := range b.Vector {
			if a.Vector[j] != b.Vector[j] {
				t.Errorf("interval %d: vector[%d] %v vs %v", i, j, a.Vector[j], b.Vector[j])
			}
		}
		if a.Result.Anomalous != b.Result.Anomalous {
			t.Errorf("interval %d: alarm mismatch ingest=%v csv=%v", i, a.Result.Anomalous, b.Result.Anomalous)
		}
		if diff := math.Abs(a.Result.Distance - b.Result.Distance); diff > 1e-6*(1+math.Abs(b.Result.Distance)) {
			t.Errorf("interval %d: distance %g vs %g", i, a.Result.Distance, b.Result.Distance)
		}
	}
}

// TestChaosIngestFaultyDatagrams replays a trace through an ingest pipeline
// wired to a real monitor→NOC deployment while a fault plan drops and
// corrupts datagrams. The detector sees degraded volumes, but every sealed
// interval must still produce a NOC decision with contiguous numbering, and
// shutdown must stay clean.
func TestChaosIngestFaultyDatagrams(t *testing.T) {
	tr := e2eTrace(t)
	nocSvc, decisions := e2eNOC(t)
	defer nocSvc.Shutdown()

	svc, err := monitor.New(monitor.Config{
		ID:        "chaos-ingest",
		FlowIDs:   []int{0, 1, 2, 3, 4, 5, 6, 7, 8},
		WindowLen: e2eWindow,
		Epsilon:   0.01,
		Sketch:    randproj.Config{Seed: e2eSeed, SketchLen: e2eSketch, WindowLen: e2eWindow},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Connect(nocSvc.Addr(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()

	tbl, err := traffic.BuildRoutingTable(e2eRouters)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := flow.NewAggregator(tbl, e2eRouters, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.MustPlan(17,
		faults.Rule{Dir: faults.DirRecv, Type: "netflow", Prob: 0.2, Drop: true},
		faults.Rule{Dir: faults.DirRecv, Type: "netflow", Prob: 0.1, Corrupt: true},
	)
	p, err := ingest.NewPipeline(ingest.Config{
		Aggregator: agg,
		Interval:   300 * time.Second,
		Faults:     plan,
		Sink: func(iv ingest.Interval) error {
			return svc.ReportInterval(iv.Seq, iv.Volumes)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ingest.ExportTrace(tr, ingest.ExportOptions{RecordsPerFlow: 3, MaxRecords: 10}, func(d []byte) error {
		return p.HandleDatagram(d)
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	sealed := int(p.Metrics().EpochsSealed.Value())
	if sealed == 0 {
		t.Fatal("chaos dropped every interval")
	}
	dropped := p.Metrics().FaultDrops.Value()
	corrupted := p.Metrics().DecodeErrors.Value()
	if dropped == 0 || corrupted == 0 {
		t.Fatalf("fault plan never fired (dropped=%d corrupted=%d)", dropped, corrupted)
	}
	got := collectDecisions(t, decisions, sealed)
	for i := int64(1); i <= int64(sealed); i++ {
		if _, ok := got[i]; !ok {
			t.Fatalf("interval %d missing from NOC decisions", i)
		}
	}
}
