// Botnet scenario: coordinated low-profile anomalies — the paper's headline
// target. Several OD flows shift simultaneously by amounts too small to
// stand out on any single link; the subspace method catches the correlated
// deviation. The example runs BOTH the exact Lakhina baseline and the
// sketch-based streaming detector and compares their verdicts per event,
// plus prints a Fig. 5-style view of the affected flows.
//
//	go run ./examples/botnet
package main

import (
	"fmt"
	"log"

	"streampca"

	"streampca/internal/pca"
	"streampca/internal/traffic"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		perDay    = traffic.IntervalsPerDay5Min
		windowLen = perDay
		total     = 3 * perDay
		sketchLen = 150
		rank      = 6
		alpha     = 0.01
	)

	tr, err := traffic.Generate(traffic.GeneratorConfig{NumIntervals: total, Seed: 31337})
	if err != nil {
		return err
	}
	// Three command-and-control bursts: each nudges a different bot set of
	// OD flows by ~50–70% of baseline for 20–30 minutes.
	events := []struct {
		flows      []int
		start, end int
		mag        float64
	}{
		{flows: []int{2, 20, 47, 66}, start: windowLen + 60, end: windowLen + 66, mag: 0.7},
		{flows: []int{5, 14, 23, 59, 71}, start: windowLen + 200, end: windowLen + 204, mag: 0.5},
		{flows: []int{8, 33, 52}, start: 2*perDay + 100, end: 2*perDay + 105, mag: 0.6},
	}
	for _, e := range events {
		if err := tr.InjectCoordinated(e.flows, e.start, e.end, e.mag); err != nil {
			return err
		}
	}

	// Exact Lakhina baseline (full window, O(nm) space at the NOC).
	exact, err := pca.NewSlidingDetector(pca.SlidingConfig{
		WindowLen:  windowLen,
		NumFlows:   tr.NumFlows(),
		Rank:       rank,
		Alpha:      alpha,
		RefitEvery: 8,
	})
	if err != nil {
		return err
	}

	// Sketch-based streaming detector (O(m log n) space at the NOC).
	cl, err := streampca.NewCluster(streampca.ClusterConfig{
		NumFlows:    tr.NumFlows(),
		NumMonitors: 9,
		WindowLen:   windowLen,
		Epsilon:     0.01,
		Alpha:       alpha,
		SketchLen:   sketchLen,
		Seed:        1,
		Mode:        streampca.RankFixed,
		FixedRank:   rank,
	})
	if err != nil {
		return err
	}

	exactFlags := make([]bool, total)
	sketchFlags := make([]bool, total)
	for i := 0; i < total; i++ {
		row := tr.Volumes.Row(i)
		res, err := exact.Observe(row)
		if err != nil {
			return err
		}
		exactFlags[i] = res.Ready && res.Anomalous
		dec, err := cl.Step(int64(i+1), row)
		if err != nil {
			return err
		}
		sketchFlags[i] = i >= windowLen && dec.Anomalous
	}

	fmt.Println("botnet demo: coordinated low-profile anomalies, exact vs sketch detector")
	fmt.Printf("%-28s %-10s %-10s\n", "event", "exact", "sketch")
	for _, e := range events {
		exactHit, sketchHit := 0, 0
		for i := e.start; i < e.end; i++ {
			if exactFlags[i] {
				exactHit++
			}
			if sketchFlags[i] {
				sketchHit++
			}
		}
		span := e.end - e.start
		fmt.Printf("flows %v [%d,%d): %8d/%d %8d/%d\n",
			e.flows, e.start, e.end, exactHit, span, sketchHit, span)
	}

	// Agreement between the two detectors on non-event intervals — the
	// sketch method is an approximation of the exact one (Theorem 2).
	labels := tr.Labels()
	var agree, count int
	for i := windowLen; i < total; i++ {
		if labels[i] {
			continue
		}
		count++
		if exactFlags[i] == sketchFlags[i] {
			agree++
		}
	}
	fmt.Printf("\nexact/sketch agreement on background traffic: %.1f%% of %d intervals\n",
		100*float64(agree)/float64(count), count)

	// Fig. 5-style view of the first event's flows.
	fmt.Println("\nvolume series around event 1 (cf. paper Fig. 5):")
	e := events[0]
	names := make([]string, len(e.flows))
	for i, f := range e.flows {
		names[i] = tr.FlowNames[f]
	}
	fmt.Printf("interval")
	for _, n := range names {
		fmt.Printf(",%s", n)
	}
	fmt.Println()
	for i := e.start - 5; i < e.end+5; i++ {
		fmt.Printf("%d", i)
		for _, f := range e.flows {
			fmt.Printf(",%.0f", tr.Volumes.At(i, f))
		}
		if i >= e.start && i < e.end {
			fmt.Print("  <- anomalous")
		}
		fmt.Println()
	}
	return nil
}
