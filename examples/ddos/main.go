// DDoS scenario: a high-profile volumetric attack against one destination,
// detected from the per-interval OD-flow volumes the monitors sketch.
//
//	go run ./examples/ddos
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
		perDay    = traffic.IntervalsPerDay5Min
		windowLen = perDay / 2 // half a day
		total     = 2 * perDay
		sketchLen = 100
	)

	// Baseline traffic with a DDoS against WASH (router 8) near the end:
	// every OD flow into WASH surges 5× its baseline for 30 minutes.
	tr, err := traffic.Generate(traffic.GeneratorConfig{
		NumIntervals: total,
		Seed:         2024,
	})
	if err != nil {
		return err
	}
	washIdx := 8
	attackStart, attackEnd := total-perDay/4, total-perDay/4+6
	if err := tr.InjectFlashCrowd(washIdx, attackStart, attackEnd, 5); err != nil {
		return err
	}

	cl, err := streampca.NewCluster(streampca.ClusterConfig{
		NumFlows:    tr.NumFlows(),
		NumMonitors: 3,
		WindowLen:   windowLen,
		Epsilon:     0.02,
		Alpha:       0.01,
		Sketch:      streampca.SketchConfig{Seed: 99, SketchLen: sketchLen},
		Mode:        streampca.RankFixed,
		FixedRank:   6,
	})
	if err != nil {
		return err
	}

	fmt.Printf("ddos demo: %d flows, window %d, attack on %s at [%d,%d)\n",
		tr.NumFlows(), windowLen, traffic.AbileneRouters[washIdx], attackStart, attackEnd)

	var detected []int
	for i := 0; i < total; i++ {
		dec, err := cl.Step(int64(i+1), tr.Volumes.Row(i))
		if err != nil {
			return err
		}
		if i >= windowLen && dec.Anomalous {
			detected = append(detected, i)
		}
	}

	var inWindow int
	for _, i := range detected {
		if i >= attackStart && i < attackEnd {
			inWindow++
		}
	}
	fmt.Printf("alarms: %d total, %d inside the attack window\n", len(detected), inWindow)
	if inWindow > 0 {
		fmt.Println("result: high-profile DDoS detected ✔")
	} else {
		fmt.Println("result: attack missed — inspect parameters")
	}
	return nil
}
