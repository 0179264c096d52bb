// Distributed scenario: the full Fig. 1 deployment on loopback TCP. With
// -aggs 0 (the default) it is flat — one NOC service plus three local-monitor
// services, each owning a third of the OD flows. With -aggs N it grows one
// tier: N mid-tier aggregators shard the flow space, and 2N monitors each
// register with their rendezvous-preferred aggregator, which merges its
// shard's sketches and volume reports so the NOC sees N "monitors" whose
// flows partition the network. Monitors stream per-interval volume reports;
// the NOC assembles network-wide vectors and pulls sketches lazily; alarms
// are broadcast back to every monitor.
//
// Sketch linearity makes the tier transparent: merged randproj columns are
// byte-identical to what the flat topology delivers, so both topologies
// print the same NOC summary and detection lines (ci.sh diffs them; the
// differential e2e test in internal/noc pins the decisions). Pass
// -sketcher fd for the Frequent Directions family. Expect it to miss this
// scenario's low-profile coordinated anomaly: FD models the full stream
// prefix per monitor block with no cross-monitor covariance, so a subtle
// shift spread across the monitors stays inside each block's residual
// budget (DESIGN.md §15; per-shard merged blocks under -aggs, §16; compare
// the families head-to-head with abilene-eval -shootout).
//
// Pass -metrics-addr 127.0.0.1:9090 to watch the NOC's /metrics,
// /healthz and /debug/pprof while the scenario streams.
//
// Pass -ingest to feed each monitor through an internal/ingest pipeline
// instead of direct volume rows: the trace is serialized to NetFlow v5
// datagrams (each monitor sees only its own flows) and re-aggregated into
// interval rows by the ingestion path before reporting.
//
//	go run ./examples/distributed
//	go run ./examples/distributed -aggs 3
package main

import (
	"flag"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"streampca/internal/agg"
	"streampca/internal/core"
	"streampca/internal/ingest"
	"streampca/internal/monitor"
	"streampca/internal/noc"
	"streampca/internal/obs"
	"streampca/internal/randproj"
	sketchpkg "streampca/internal/sketch"
	"streampca/internal/tier"
	"streampca/internal/trace"
	"streampca/internal/traffic"
	"streampca/internal/transport"
)

// options are the command-line flags.
type options struct {
	aggs        int
	metricsAddr string
	ingest      bool
	sketcher    string
	trace       bool
	traceSample int
	flight      string
}

func main() {
	var o options
	flag.IntVar(&o.aggs, "aggs", 0, "mid-tier aggregators between the monitors and the NOC (0 = flat topology)")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve NOC diagnostics (/metrics, /healthz, /debug/pprof, /debug/trace) on this address")
	flag.BoolVar(&o.ingest, "ingest", false, "feed monitors through NetFlow v5 ingest pipelines instead of direct volume rows")
	flag.StringVar(&o.sketcher, "sketcher", "randproj", "sketcher family: randproj or fd")
	flag.BoolVar(&o.trace, "trace", false, "record interval-lineage spans on the NOC (served on /debug/trace with -metrics-addr)")
	flag.IntVar(&o.traceSample, "trace-sample", 1, "with -trace, keep every trace whose id % N == 0 (1 = all)")
	flag.StringVar(&o.flight, "flight-recorder", "", "append one JSONL audit record per alarm/degraded decision to this file")
	flag.Parse()
	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

func run(o options) error {
	const (
		perDay    = traffic.IntervalsPerDay5Min
		windowLen = perDay / 2
		total     = perDay * 3 / 2
		sketchLen = 100
		seed      = 777
		dialTO    = 2 * time.Second
	)
	if o.aggs < 0 {
		return fmt.Errorf("-aggs %d: want 0 or more", o.aggs)
	}
	numMons := 3
	if o.aggs > 0 {
		numMons = 2 * o.aggs
	}
	fam, err := sketchpkg.ParseFamily(o.sketcher)
	if err != nil {
		return fmt.Errorf("-sketcher: %w", err)
	}

	tr, err := traffic.Generate(traffic.GeneratorConfig{NumIntervals: total, Seed: 60})
	if err != nil {
		return err
	}
	anomalyStart, anomalyEnd := total-40, total-35
	if err := tr.InjectCoordinated([]int{4, 22, 40, 58, 76}, anomalyStart, anomalyEnd, 0.8); err != nil {
		return err
	}
	m := tr.NumFlows()

	// The sketch parameter is the projection length l for randproj and the
	// per-monitor basis budget ℓ for Frequent Directions (all monitors must
	// announce the same value, which the NOC's detector also carries). Keep
	// 2ℓ below the per-monitor flow count: a buffer that can hold the whole
	// local column space makes every block full-rank and the full-spectrum
	// Q-statistic degenerate (see the abilene-eval -shootout harness).
	sketchParam := sketchLen
	if fam == sketchpkg.FamilyFD {
		sketchParam = sketchpkg.DefaultEll(m / numMons)
	}

	var tracer *trace.Tracer
	if o.trace {
		tracer = trace.New(trace.Config{Component: "noc", Sample: o.traceSample})
	}
	var recorder *trace.FlightRecorder
	if o.flight != "" {
		recorder, err = trace.OpenFlightRecorder(o.flight)
		if err != nil {
			return fmt.Errorf("-flight-recorder: %w", err)
		}
		defer func() { _ = recorder.Close() }()
	}

	// Fault tolerance on every tier: retry missing sketch responses twice
	// (the NOC's default; the aggregators set it) and, should a peer vanish
	// mid-run, keep deciding on its cached state.
	degraded := tier.DegradedPolicy{Enabled: true}

	// NOC — the same in both topologies: it just sees registrants whose
	// flows partition the network.
	decisions := make(chan noc.Decision, total)
	nocSvc, err := noc.New(noc.Config{
		Detector: core.DetectorConfig{
			Family:    fam,
			NumFlows:  m,
			WindowLen: windowLen,
			SketchLen: sketchParam,
			Alpha:     0.01,
			Mode:      core.RankFixed,
			FixedRank: 6,
		},
		Seed:           seed,
		Degraded:       degraded,
		OnDecision:     func(d noc.Decision) { decisions <- d },
		MetricsAddr:    o.metricsAddr,
		Trace:          tracer,
		FlightRecorder: recorder,
	})
	if err != nil {
		return err
	}
	if err := nocSvc.Serve("127.0.0.1:0"); err != nil {
		return err
	}
	defer nocSvc.Shutdown()
	fmt.Printf("NOC listening on %s (sketcher=%s sketch=%d)\n", nocSvc.Addr(), fam, sketchParam)
	if addr := nocSvc.DiagAddr(); addr != "" {
		fmt.Printf("NOC diagnostics on http://%s/metrics\n", addr)
	}

	// Aggregator tier. Ports are dynamic, so the full candidate list is
	// installed with SetPeers once every listener is up, then each
	// aggregator dials the NOC and announces its (initially empty) shard.
	aggs := make([]*agg.Service, o.aggs)
	aggAddrs := make([]string, o.aggs)
	aggRegs := make([]*obs.Registry, o.aggs)
	for i := range aggs {
		aggRegs[i] = obs.NewRegistry()
		a, err := agg.New(agg.Config{
			ID:        fmt.Sprintf("agg-%d", i+1),
			Family:    fam,
			NumFlows:  m,
			WindowLen: windowLen,
			SketchLen: sketchParam,
			Seed:      seed,
			Pull:      tier.PullPolicy{Retries: 2},
			Degraded:  degraded,
			Redial:    tier.RedialPolicy{Enabled: true},
			Obs:       aggRegs[i],
		})
		if err != nil {
			return err
		}
		if err := a.Serve("127.0.0.1:0"); err != nil {
			return err
		}
		defer func() { _ = a.Close() }()
		aggs[i] = a
		aggAddrs[i] = a.Addr()
	}
	for _, a := range aggs {
		a.SetPeers(aggAddrs, 1)
		if err := a.ConnectNOC(nocSvc.Addr(), dialTO); err != nil {
			return err
		}
	}
	if o.aggs > 0 {
		fmt.Printf("%d aggregators up: %v\n", o.aggs, aggAddrs)
	}

	// Monitors, striping the flows. Flat, each dials the NOC; federated,
	// each places itself on its rendezvous-preferred aggregator — the walk
	// sketchpca-monitor -aggs makes and a failover repeats.
	var alarmsSeen atomic.Int64
	assign := make([][]int, numMons)
	for f := 0; f < m; f++ {
		assign[f%numMons] = append(assign[f%numMons], f)
	}
	mons := make([]*monitor.Service, numMons)
	for i := range mons {
		svc, err := monitor.New(monitor.Config{
			ID:         fmt.Sprintf("monitor-%d", i+1),
			Family:     fam,
			FlowIDs:    assign[i],
			WindowLen:  windowLen,
			Epsilon:    0.02,
			Sketch:     randproj.Config{Seed: seed, SketchLen: sketchParam, WindowLen: windowLen},
			FDEll:      sketchParam,
			Redial:     tier.RedialPolicy{Enabled: true},
			Candidates: aggAddrs,
			OnAlarm:    func(transport.Alarm) { alarmsSeen.Add(1) },
		})
		if err != nil {
			return err
		}
		upstream := nocSvc.Addr()
		if o.aggs > 0 {
			upstream, err = svc.Place(dialTO)
		} else {
			err = svc.Connect(upstream, dialTO)
		}
		if err != nil {
			return err
		}
		defer func() { _ = svc.Close() }()
		mons[i] = svc
		fmt.Printf("%s -> %s (%d flows)\n", svc.ID(), upstream, len(assign[i]))
	}
	if err := waitCoverage(aggs, m); err != nil {
		return err
	}

	// Stream the trace, tallying the NOC's verdicts against ground truth.
	var hits, falseAlarms int
	tally := func(i int, d noc.Decision) {
		if i < windowLen || !d.Result.Anomalous {
			return
		}
		if i >= anomalyStart && i < anomalyEnd {
			hits++
			fmt.Printf("  ALARM interval %d: distance %.3g > δ %.3g (inside injection)\n",
				i, d.Result.Distance, d.Result.Threshold)
		} else {
			falseAlarms++
		}
	}
	if o.ingest {
		if err := streamViaIngest(tr, mons, assign, decisions, tally); err != nil {
			return err
		}
	} else {
		// Direct path: each monitor reports its slice of each interval.
		for i := 0; i < total; i++ {
			row := tr.Volumes.RowView(i)
			for mi, mon := range mons {
				local := make([]float64, len(assign[mi]))
				for k, f := range assign[mi] {
					local[k] = row[f]
				}
				if err := mon.ReportInterval(int64(i+1), local); err != nil {
					return fmt.Errorf("%s interval %d: %w", mon.ID(), i, err)
				}
			}
			// Wait for the NOC's verdict on this interval to keep the demo
			// deterministic.
			tally(i, waitDecision(decisions, int64(i+1)))
		}
	}

	// Alarm broadcasts race the final report (and hop through the
	// aggregators when there are any); give them a beat.
	time.Sleep(300 * time.Millisecond)
	observations, fetches, alarms := nocSvc.DetectorStats()
	fmt.Printf("\nNOC: %d observations, %d lazy sketch pulls, %d alarms raised\n", observations, fetches, alarms)
	for i, a := range aggs {
		count := func(name string) int64 { return aggRegs[i].Counter("streampca_agg_"+name, "").Value() }
		fmt.Printf("%s: %d monitors, %d volume forwards, %d merged pulls, %d alarms relayed\n",
			a.ID(), len(a.Monitors()), count("volume_forwards_total"), count("fetches_served_total"),
			count("alarms_relayed_total"))
	}
	fmt.Printf("monitors received %d alarm broadcasts\n", alarmsSeen.Load())
	fmt.Printf("detection: %d/%d injected intervals flagged, %d false alarms\n",
		hits, anomalyEnd-anomalyStart, falseAlarms)
	if hits > 0 {
		fmt.Println("result: the lazy protocol detected the coordinated anomaly ✔")
	}
	if tracer != nil {
		fmt.Printf("trace: %d spans retained (GET /debug/trace on the NOC diagnostics address)\n",
			tracer.Recorder().Len())
	}
	if recorder != nil {
		fmt.Printf("flight recorder: %d audit records appended to %s\n", recorder.Count(), o.flight)
	}
	return nil
}

// waitCoverage waits until the aggregators' flow unions cover all m flows:
// an aggregator re-announces its union upstream as monitors register, and
// an interval reported before the last registration lands would be
// forwarded short of a monitor. The flat topology has nothing to wait for.
func waitCoverage(aggs []*agg.Service, m int) error {
	deadline := time.Now().Add(5 * time.Second)
	for len(aggs) > 0 {
		covered := 0
		for _, a := range aggs {
			covered += len(a.FlowUnion())
		}
		if covered == m {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("aggregators cover %d of %d flows", covered, m)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// streamViaIngest replays the trace as NetFlow v5 datagrams through one
// ingest pipeline per monitor (each seeing only its own flows) in lockstep:
// interval i's datagrams advance every pipeline's record-clock watermark,
// sealing interval i-1 network-wide, and the NOC's verdict is awaited
// before moving on. Closing the pipelines drains and seals the final
// (partial) interval — the same graceful-shutdown path the daemons use.
func streamViaIngest(tr *traffic.Trace, mons []*monitor.Service, assign [][]int,
	decisions chan noc.Decision, tally func(int, noc.Decision)) error {
	agg, err := traffic.NewAbileneAggregator()
	if err != nil {
		return err
	}
	total := tr.NumIntervals()
	pipes := make([]*ingest.Pipeline, len(mons))
	for mi := range pipes {
		mon, mine := mons[mi], assign[mi]
		p, err := ingest.NewPipeline(ingest.Config{
			Aggregator: agg,
			Interval:   300 * time.Second,
			Sink: func(iv ingest.Interval) error {
				local := make([]float64, len(mine))
				for k, f := range mine {
					local[k] = iv.Volumes[f]
				}
				return mon.ReportInterval(iv.Seq, local)
			},
		})
		if err != nil {
			return err
		}
		defer func() { _ = p.Close() }()
		pipes[mi] = p
	}
	byMon := make([][][][]byte, len(mons)) // [monitor][interval][k]datagram
	for mi := range byMon {
		grouped, err := exportGrouped(tr, assign[mi])
		if err != nil {
			return err
		}
		byMon[mi] = grouped
	}
	fmt.Printf("ingest mode: replaying %d intervals as NetFlow v5 through %d pipelines\n",
		total, len(pipes))
	for i := 0; i < total; i++ {
		for mi, p := range pipes {
			for _, d := range byMon[mi][i] {
				if err := p.HandleDatagram(d); err != nil {
					return fmt.Errorf("%s datagram (interval %d): %w", mons[mi].ID(), i, err)
				}
			}
		}
		if i >= 1 {
			// Interval i's datagrams sealed interval i-1 (reported as i).
			tally(i-1, waitDecision(decisions, int64(i)))
		}
	}
	for _, p := range pipes {
		if err := p.Close(); err != nil {
			return err
		}
	}
	tally(total-1, waitDecision(decisions, int64(total)))
	return nil
}

// exportGrouped serializes the flows of one monitor to NetFlow v5
// datagrams, grouped by source interval (ExportTrace flushes at interval
// boundaries, so no datagram spans two).
func exportGrouped(tr *traffic.Trace, flows []int) ([][][]byte, error) {
	owned := make(map[int]bool, len(flows))
	for _, f := range flows {
		owned[f] = true
	}
	out := make([][][]byte, tr.NumIntervals())
	const base = 1_200_000_000 // ExportOptions' default BaseTime
	var d ingest.Datagram
	err := ingest.ExportTrace(tr, ingest.ExportOptions{
		FlowFilter: func(id int) bool { return owned[id] },
	}, func(buf []byte) error {
		if err := ingest.DecodeDatagram(buf, &d); err != nil {
			return err
		}
		i := (int64(d.Header.UnixSecs) - base) / 300
		out[i] = append(out[i], append([]byte(nil), buf...))
		return nil
	})
	return out, err
}

// waitDecision drains the decision stream until the given interval appears.
func waitDecision(ch <-chan noc.Decision, interval int64) noc.Decision {
	for {
		select {
		case d := <-ch:
			if d.Interval == interval {
				return d
			}
		case <-time.After(10 * time.Second):
			log.Fatalf("timed out waiting for interval %d", interval)
		}
	}
}
