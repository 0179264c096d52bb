// Federated scenario: the Fig. 1 deployment grown one tier — three
// mid-tier aggregators shard the flow space between the monitors and the
// NOC. Six monitors each own a stripe of the OD flows and register with
// their rendezvous-preferred aggregator; each aggregator merges its shard's
// sketches (lossless column union for randproj) and volume reports, and the
// NOC sees exactly three "monitors" whose flows partition the network.
//
// Sketch linearity makes the tier transparent: the merged randproj columns
// are byte-identical to what the flat topology would deliver, so models,
// thresholds and alarm decisions match the single-NOC deployment exactly
// (the differential e2e test in internal/noc pins this).
//
// Pass -sketcher fd for the Frequent Directions family (per-shard merged
// blocks; see DESIGN.md §16 for the semantic difference).
//
//	go run ./examples/federated
package main

import (
	"flag"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"streampca/internal/agg"
	"streampca/internal/core"
	"streampca/internal/monitor"
	"streampca/internal/noc"
	"streampca/internal/randproj"
	sketchpkg "streampca/internal/sketch"
	"streampca/internal/traffic"
	"streampca/internal/transport"
)

func main() {
	metricsAddr := flag.String("metrics-addr", "", "serve NOC diagnostics (/metrics, /healthz, /debug/pprof) on this address")
	sketcher := flag.String("sketcher", "randproj", "sketcher family: randproj or fd")
	flag.Parse()
	if err := run(*metricsAddr, *sketcher); err != nil {
		log.Fatal(err)
	}
}

func run(metricsAddr string, sketcher string) error {
	const (
		perDay    = traffic.IntervalsPerDay5Min
		windowLen = perDay / 2
		total     = perDay * 3 / 2
		sketchLen = 100
		seed      = 777
		numAggs   = 3
		numMons   = 6
	)
	fam, err := sketchpkg.ParseFamily(sketcher)
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

	// Shared sketch parameter: projection length l for randproj, per-monitor
	// basis budget ℓ for FD (2ℓ must stay below the per-monitor flow count).
	sketchParam := sketchLen
	if fam == sketchpkg.FamilyFD {
		sketchParam = sketchpkg.DefaultEll(m / numMons)
	}

	// NOC — completely unchanged from the flat deployment: it just sees
	// three registrants whose flows happen to partition the network.
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
		Seed:         seed,
		FetchRetries: 2,
		Degraded:     noc.DegradedPolicy{Enabled: true},
		OnDecision:   func(d noc.Decision) { decisions <- d },
		MetricsAddr:  metricsAddr,
	})
	if err != nil {
		return err
	}
	if err := nocSvc.Serve("127.0.0.1:0"); err != nil {
		return err
	}
	defer nocSvc.Shutdown()
	fmt.Printf("NOC listening on %s (sketcher=%s sketch=%d)\n", nocSvc.Addr(), fam, sketchParam)

	// Aggregator tier. Ports are dynamic, so the full candidate list is
	// installed with SetPeers once every listener is up, then each
	// aggregator dials the NOC and announces its (initially empty) shard.
	aggs := make([]*agg.Service, numAggs)
	aggAddrs := make([]string, numAggs)
	for i := range aggs {
		a, err := agg.New(agg.Config{
			ID:           fmt.Sprintf("agg-%d", i+1),
			Family:       fam,
			NumFlows:     m,
			WindowLen:    windowLen,
			SketchLen:    sketchParam,
			Seed:         seed,
			FetchRetries: 2,
			Degraded:     agg.DegradedPolicy{Enabled: true},
			Reconnect:    true,
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
		if err := a.ConnectNOC(nocSvc.Addr(), 2*time.Second); err != nil {
			return err
		}
	}
	fmt.Printf("%d aggregators up: %v\n", numAggs, aggAddrs)

	// Monitors, striping the flows. Each dials its rendezvous-preferred
	// aggregator — the same independent placement the daemons compute from
	// sketchpca-monitor -aggs.
	var alarmsSeen atomic.Int64
	assign := make([][]int, numMons)
	for f := 0; f < m; f++ {
		assign[f%numMons] = append(assign[f%numMons], f)
	}
	mons := make([]*monitor.Service, numMons)
	for i := range mons {
		id := fmt.Sprintf("monitor-%d", i+1)
		svc, err := monitor.New(monitor.Config{
			ID:         id,
			Family:     fam,
			FlowIDs:    assign[i],
			WindowLen:  windowLen,
			Epsilon:    0.02,
			Sketch:     randproj.Config{Seed: seed, SketchLen: sketchParam, WindowLen: windowLen},
			FDEll:      sketchParam,
			Reconnect:  true,
			Candidates: aggAddrs,
			OnAlarm:    func(transport.Alarm) { alarmsSeen.Add(1) },
		})
		if err != nil {
			return err
		}
		home := agg.Rendezvous(id, aggAddrs)[0]
		if err := svc.Connect(home, 2*time.Second); err != nil {
			return err
		}
		defer func() { _ = svc.Close() }()
		mons[i] = svc
		fmt.Printf("%s -> %s (%d flows)\n", id, home, len(assign[i]))
	}

	// Stream the trace, tallying the NOC's verdicts against ground truth.
	var hits, falseAlarms int
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
		d := waitDecision(decisions, int64(i+1))
		if i < windowLen || !d.Result.Anomalous {
			continue
		}
		if i >= anomalyStart && i < anomalyEnd {
			hits++
			fmt.Printf("  ALARM interval %d: distance %.3g > δ %.3g (inside injection)\n",
				i, d.Result.Distance, d.Result.Threshold)
		} else {
			falseAlarms++
		}
	}

	// Alarm broadcasts hop NOC -> aggregator -> monitor; give them a beat.
	time.Sleep(300 * time.Millisecond)
	obs, fetches, alarms := nocSvc.DetectorStats()
	fmt.Printf("\nNOC: %d observations, %d lazy sketch pulls, %d alarms raised\n", obs, fetches, alarms)
	for _, a := range aggs {
		st := a.Stats()
		fmt.Printf("%s: %d monitors, %d volume forwards, %d merged pulls, %d alarms relayed\n",
			a.ID(), st.Monitors, st.VolumeForwards, st.Fetches, st.AlarmsRelayed)
	}
	fmt.Printf("monitors received %d alarm broadcasts (via the aggregator tier)\n", alarmsSeen.Load())
	fmt.Printf("detection: %d/%d injected intervals flagged, %d false alarms\n",
		hits, anomalyEnd-anomalyStart, falseAlarms)
	if hits > 0 {
		fmt.Println("result: federated lazy protocol detected the coordinated anomaly ✔")
	}
	return nil
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
