// Quickstart: run the sketch-based streaming PCA detector end to end on a
// synthetic Abilene trace with one injected coordinated anomaly.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"streampca"

	"streampca/internal/traffic"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		days      = 4
		perDay    = traffic.IntervalsPerDay5Min
		windowLen = perDay // one day of history
		sketchLen = 120
	)

	// 1. Synthesize four days of Abilene OD-flow volumes and inject a
	//    coordinated low-profile anomaly on four flows.
	tr, err := traffic.Generate(traffic.GeneratorConfig{
		NumIntervals: days * perDay,
		Seed:         7,
	})
	if err != nil {
		return err
	}
	anomalyStart := 3 * perDay
	anomalyEnd := anomalyStart + 6 // half an hour
	flows := []int{1, 12, 30, 61}
	if err := tr.InjectCoordinated(flows, anomalyStart, anomalyEnd, 0.9); err != nil {
		return err
	}
	fmt.Printf("trace: %d intervals × %d OD flows, anomaly on %v at [%d,%d)\n",
		tr.NumIntervals(), tr.NumFlows(), flows, anomalyStart, anomalyEnd)

	// 2. Build an in-process cluster: 9 local monitors (one per router's
	//    measurement site) plus the NOC detector.
	cl, err := streampca.NewCluster(streampca.ClusterConfig{
		NumFlows:    tr.NumFlows(),
		NumMonitors: 9,
		WindowLen:   windowLen,
		Epsilon:     0.01,
		Alpha:       0.01,
		SketchLen:   sketchLen,
		Seed:        42,
		Mode:        streampca.RankFixed,
		FixedRank:   6,
	})
	if err != nil {
		return err
	}

	// 3. Stream the trace interval by interval.
	var hits, falseAlarms, evaluated, refreshes int
	for i := 0; i < tr.NumIntervals(); i++ {
		dec, err := cl.Step(int64(i+1), tr.Volumes.Row(i))
		if err != nil {
			return err
		}
		if i < windowLen {
			continue // warm-up
		}
		evaluated++
		if dec.Refreshed {
			refreshes++
		}
		if !dec.Anomalous {
			continue
		}
		if i >= anomalyStart && i < anomalyEnd {
			hits++
			fmt.Printf("  ALARM at interval %d (inside injection): distance %.3g > threshold %.3g\n",
				i, dec.Distance, dec.Threshold)
		} else {
			falseAlarms++
		}
	}

	obs, fetches, _ := cl.Detector().Stats()
	fmt.Printf("\nprotocol: %d observations, %d sketch fetches (lazy pulls), %d model refreshes\n",
		obs, fetches, refreshes)
	fmt.Printf("detection: %d/%d injected intervals flagged; %d false alarms over %d normal intervals (%.1f%%)\n",
		hits, anomalyEnd-anomalyStart, falseAlarms, evaluated-(anomalyEnd-anomalyStart),
		100*float64(falseAlarms)/float64(evaluated-(anomalyEnd-anomalyStart)))
	if hits > 0 {
		fmt.Println("result: the coordinated low-profile anomaly was caught as it happened ✔")
	} else {
		fmt.Println("result: anomaly missed — try a longer sketch or lower alpha")
	}
	return nil
}
