// Command sketchpca-noc runs the Network Operation Center daemon: it
// listens for local monitors, assembles network-wide measurement vectors
// from their per-interval volume reports, and runs the lazy sketch-PCA
// detection protocol, printing one CSV line per decision and raising alarms.
//
// Usage:
//
//	sketchpca-noc -listen 127.0.0.1:7100 -flows 81 -window 4032 \
//	    -sketch 200 -alpha 0.01 -rank 6 -seed 42
//
// The NOC states the protocol parameters — -sketcher, -flows, -window,
// -sketch and -seed — once for the deployment: it announces them
// to every monitor and aggregator that registers, which adopt them. With
// -sketcher fd, -sketch carries the Frequent Directions basis budget ℓ
// instead of the projection length l.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"streampca/internal/cliflags"
	"streampca/internal/core"
	"streampca/internal/noc"
	"streampca/internal/obs"
	"streampca/internal/sketch"
	"streampca/internal/tier"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sketchpca-noc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sketchpca-noc", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:7100", "listen address")
		flows    = fs.Int("flows", 81, "network-wide number of aggregated flows (m)")
		window   = fs.Int("window", 4032, "sliding-window length in intervals (n)")
		family   = fs.String("sketcher", "randproj", "sketcher family: randproj or fd")
		sketchL  = fs.Int("sketch", 200, "sketch length (l for -sketcher randproj, basis budget ℓ for fd)")
		alpha    = fs.Float64("alpha", 0.01, "Q-statistic false-alarm rate")
		rank     = fs.Int("rank", 6, "normal-subspace size when -energy is 0")
		energy   = fs.Float64("energy", 0, "retained spectral energy in (0, 1] that chooses the rank instead of -rank (0 = off)")
		seed     = fs.Uint64("seed", 42, "shared randomness seed")
		quiet    = fs.Bool("quiet", false, "print only alarms, not every decision")
		pull     = cliflags.Pull(fs, tier.NOCPull, "timeout for one sketch-pull round")
		degraded = cliflags.Degraded(fs, false, "keep deciding on cached volumes/sketches when monitors are missing", "cache")
		selfchk  = cliflags.SelfCheck(fs, "validate every Nth interval against an exact batch-PCA oracle (0 = off)")
		metrics  = cliflags.Metrics(fs, "/metrics, /healthz and /debug/pprof")
		tracing  = cliflags.Trace(fs, "append one JSONL audit record per alarm/degraded decision to this file (off when empty)")
		identK   = fs.Int("identify-topk", 0, "max anomography culprits identified per alarm (0 = default, -1 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	fam, err := sketch.ParseFamily(*family)
	if err != nil {
		return fmt.Errorf("-sketcher: %w", err)
	}

	tracer, recorder, err := tracing.Open("noc")
	if err != nil {
		return err
	}
	defer func() { _ = recorder.Close() }()

	logger := obs.NewLogger(os.Stderr, slog.LevelInfo, "noc")
	svc, err := noc.New(noc.Config{
		Log:            logger,
		MetricsAddr:    metrics.Addr,
		Trace:          tracer,
		FlightRecorder: recorder,
		IdentifyMaxK:   *identK,
		Detector: core.DetectorConfig{
			Family:     fam,
			NumFlows:   *flows,
			WindowLen:  *window,
			SketchLen:  *sketchL,
			Alpha:      *alpha,
			FixedRank:  *rank,
			EnergyFrac: *energy,
		},
		Seed:           *seed,
		SelfCheckEvery: *selfchk,
		Pull:           *pull,
		Degraded:       *degraded,
		OnDecision: func(d noc.Decision) {
			flag := ""
			if d.Degraded {
				flag = ",degraded=true"
			}
			if d.Result.Anomalous {
				culprits := ""
				if d.Identified != nil && len(d.Identified.Flows) > 0 {
					ids := make([]string, len(d.Identified.Flows))
					for i, f := range d.Identified.Flows {
						ids[i] = strconv.Itoa(f.Flow)
					}
					culprits = ",culprits=" + strings.Join(ids, "+")
				}
				fmt.Printf("ALARM,interval=%d,distance=%.4g,threshold=%.4g%s%s\n",
					d.Interval, d.Result.Distance, d.Result.Threshold, culprits, flag)
				return
			}
			if !*quiet {
				fmt.Printf("ok,interval=%d,distance=%.4g,threshold=%.4g,refreshed=%t%s\n",
					d.Interval, d.Result.Distance, d.Result.Threshold, d.Result.Refreshed, flag)
			}
		},
	})
	if err != nil {
		return err
	}
	if err := svc.Serve(*listen); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sketchpca-noc: listening on %s (m=%d n=%d sketch=%d family=%s)\n",
		svc.Addr(), *flows, *window, *sketchL, fam)
	if addr := svc.DiagAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "sketchpca-noc: diagnostics on http://%s/metrics\n", addr)
	}

	stopStats := metrics.LogEvery(svc.LogSummary)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "sketchpca-noc: shutting down")
	stopStats()
	svc.Shutdown()
	obs, fetches, alarms := svc.DetectorStats()
	fmt.Fprintf(os.Stderr, "sketchpca-noc: %d observations, %d sketch fetches, %d alarms\n",
		obs, fetches, alarms)
	return nil
}
