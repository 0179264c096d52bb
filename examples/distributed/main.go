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
// The NOC states the protocol parameters (family, n, l or ℓ, seed);
// aggregators and monitors adopt its announcement. Sketch linearity makes
// the tier transparent: merged randproj columns are byte-identical to what
// the flat topology delivers, so both topologies print the same NOC
// summary and detection lines (ci.sh diffs them; the differential e2e test
// in internal/noc pins the decisions).
//
// Pass -sketcher fd for the Frequent Directions family (DESIGN.md §15).
// Flat, it flags 3 of the 5 injected intervals with 2 false alarms on every
// run. Under -aggs it is not transparent: each aggregator merges its
// monitors' blocks into one per-shard block (DESIGN.md §16), so the model
// depends on which monitors share an aggregator, and that follows the
// dynamic ports. Runs of -aggs 3 have printed anywhere from 0/5 (14 to 26
// false alarms) to 5/5 (50 to 109). Compare the families head-to-head with
// abilene-eval -shootout.
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
	"slices"
	"sync/atomic"
	"time"

	"streampca/internal/agg"
	"streampca/internal/core"
	"streampca/internal/ingest"
	"streampca/internal/monitor"
	"streampca/internal/noc"
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
	// per-monitor basis budget ℓ for Frequent Directions, which Deploy
	// defaults from the monitors' flow count (core.Params.Stripe). That
	// default keeps 2ℓ below the count: a buffer that can hold the whole
	// local column space makes every block full-rank and the full-spectrum
	// Q-statistic degenerate (see the abilene-eval -shootout harness). Under
	// -aggs the 2N monitors split the flows unevenly and must agree on one ℓ,
	// so state the default of the smaller share, which every monitor holds.
	sketchParam := sketchLen
	if fam == sketchpkg.FamilyFD {
		sketchParam = 0
		if m%numMons != 0 {
			sketchParam = core.Params{Family: fam}.Resolve(m / numMons).SketchLen
		}
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

	// Fault tolerance on every tier: the NOC retries missing sketch responses
	// twice (tier.NOCPull; an aggregator pulls once, tier.AggPull, and leaves
	// the retrying to the NOC above it) and, should a peer vanish mid-run,
	// every tier keeps deciding on its cached state. The NOC is the same in
	// both topologies: it just sees registrants whose flows partition the
	// network. Aggregators and monitors adopt the parameters it announces.
	degraded := tier.DegradedPolicy{Enabled: true}
	var alarmsSeen atomic.Int64
	dep, err := noc.Deploy(noc.Config{
		Detector: core.DetectorConfig{
			Family:    fam,
			NumFlows:  m,
			WindowLen: windowLen,
			SketchLen: sketchParam,
			Alpha:     0.01,
			FixedRank: 6,
		},
		Seed:           seed,
		Degraded:       degraded,
		MetricsAddr:    o.metricsAddr,
		Trace:          tracer,
		FlightRecorder: recorder,
	}, noc.Topology{
		Aggregators: o.aggs,
		Monitors:    numMons,
		Agg:         agg.Config{Degraded: degraded, Redial: tier.RedialPolicy{Enabled: true}},
		Monitor: func(_ int, c *monitor.Config) {
			c.Redial = tier.RedialPolicy{Enabled: true}
			c.OnAlarm = func(transport.Alarm) { alarmsSeen.Add(1) }
		},
	})
	if err != nil {
		return err
	}
	defer dep.Close()
	fmt.Printf("NOC listening on %s (sketcher=%s sketch=%d)\n", dep.NOC.Addr(), fam, dep.Params.SketchLen)
	if addr := dep.NOC.DiagAddr(); addr != "" {
		fmt.Printf("NOC diagnostics on http://%s/metrics\n", addr)
	}
	fmt.Printf("%d monitors, %d aggregators\n", len(dep.Monitors), len(dep.Aggregators))

	// Stream the trace, tallying the NOC's verdicts (on trace row
	// Interval-1) against ground truth.
	var hits, falseAlarms int
	tally := func(d noc.Decision, err error) error {
		i := int(d.Interval) - 1
		if err != nil || i < windowLen || !d.Result.Anomalous {
			return err
		}
		if i >= anomalyStart && i < anomalyEnd {
			hits++
			fmt.Printf("  ALARM interval %d: distance %.3g > δ %.3g (inside injection)\n",
				i, d.Result.Distance, d.Result.Threshold)
		} else {
			falseAlarms++
		}
		return nil
	}
	if o.ingest {
		err = streamViaIngest(tr, dep, tally)
	}
	// Direct path: each monitor reports its slice of each interval, and the
	// NOC's verdict is awaited to keep the demo deterministic.
	for i := 0; !o.ingest && i < total && err == nil; i++ {
		err = tally(dep.Step(int64(i+1), tr.Volumes.RowView(i)))
	}
	if err != nil {
		return err
	}

	// Alarm broadcasts race the final report (and hop through the
	// aggregators when there are any); give them a beat.
	time.Sleep(300 * time.Millisecond)
	observations, fetches, alarms := dep.NOC.DetectorStats()
	fmt.Printf("\nNOC: %d observations, %d lazy sketch pulls, %d alarms raised\n", observations, fetches, alarms)
	for _, a := range dep.Aggregators {
		count := func(name string) int64 { return a.Registry().Counter("streampca_agg_"+name, "").Value() }
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

// streamViaIngest replays the trace as NetFlow v5 datagrams through one
// ingest pipeline per monitor (each seeing only its own flows) in lockstep:
// interval i's datagrams advance every pipeline's record-clock watermark,
// sealing interval i-1 network-wide, and the NOC's verdict is awaited
// before moving on. Closing the pipelines drains and seals the final
// (partial) interval — the same graceful-shutdown path the daemons use.
func streamViaIngest(tr *traffic.Trace, dep *noc.Deployment, tally func(noc.Decision, error) error) error {
	agg, err := traffic.NewAbileneAggregator()
	if err != nil {
		return err
	}
	total := tr.NumIntervals()
	pipes := make([]*ingest.Pipeline, len(dep.Monitors))
	byMon := make([][][][]byte, len(pipes)) // [monitor][interval][k]datagram
	for mi := range pipes {
		p, err := ingest.NewPipeline(ingest.Config{
			Aggregator: agg,
			Interval:   300 * time.Second,
			Sink:       func(iv ingest.Interval) error { return dep.Report(mi, iv.Seq, iv.Volumes) },
		})
		if err != nil {
			return err
		}
		defer func() { _ = p.Close() }()
		pipes[mi] = p
		if byMon[mi], err = exportGrouped(tr, dep.Flows[mi]); err != nil {
			return err
		}
	}
	fmt.Printf("ingest mode: replaying %d intervals as NetFlow v5 through %d pipelines\n",
		total, len(pipes))
	for i := 0; i < total; i++ {
		for mi, p := range pipes {
			for _, d := range byMon[mi][i] {
				if err := p.HandleDatagram(d); err != nil {
					return fmt.Errorf("%s datagram (interval %d): %w", dep.Monitors[mi].ID(), i, err)
				}
			}
		}
		// Interval i's datagrams sealed interval i-1 (reported as i).
		if i >= 1 {
			if err := tally(dep.Decision(int64(i))); err != nil {
				return err
			}
		}
	}
	for _, p := range pipes {
		if err := p.Close(); err != nil {
			return err
		}
	}
	return tally(dep.Decision(int64(total)))
}

// exportGrouped serializes the flows of one monitor to NetFlow v5
// datagrams, grouped by source interval (ExportTrace flushes at interval
// boundaries, so no datagram spans two).
func exportGrouped(tr *traffic.Trace, flows []int) ([][][]byte, error) {
	out := make([][][]byte, tr.NumIntervals())
	const base = 1_200_000_000 // ExportOptions' default BaseTime
	var d ingest.Datagram
	err := ingest.ExportTrace(tr, ingest.ExportOptions{
		FlowFilter: func(id int) bool { return slices.Contains(flows, id) },
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
