// Command sketchpca-agg runs a mid-tier aggregator daemon of the federated
// topology: it fronts a shard of local monitors exactly like a NOC (Hello
// registrations, per-interval volume reports, sketch pulls) and presents the
// shard to the real NOC as one monitor whose flows are the union of its
// monitors' and whose sketch responses are interval-aligned merges
// (sketch.MergeColumns — lossless column union for randproj, deterministic-bound
// re-insertion for fd).
//
// Usage:
//
//	sketchpca-agg -listen 127.0.0.1:7201 -noc 127.0.0.1:7100 \
//	    -id agg-east -flows 81 -window 4032 -sketch 200 -seed 42 \
//	    -peers 127.0.0.1:7201,127.0.0.1:7202,127.0.0.1:7203
//
// -window, -sketch, -sketcher and (randproj only) -seed must match both the
// NOC's and the monitors'. -peers lists every aggregator fronting the same
// NOC (including this one); it is pushed to registering monitors so they can
// re-place themselves by rendezvous hashing if this aggregator dies.
// Monitors pick their aggregator with sketchpca-monitor -aggs.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"streampca/internal/agg"
	"streampca/internal/cliflags"
	"streampca/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sketchpca-agg:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sketchpca-agg", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:7200", "listen address for downstream monitors")
		nocAddr  = fs.String("noc", "127.0.0.1:7100", "upstream NOC address")
		id       = fs.String("id", "agg-1", "aggregator identifier (the monitor id the NOC sees)")
		flows    = fs.Int("flows", 81, "network-wide number of aggregated flows (m)")
		window   = fs.Int("window", 4032, "sliding-window length in intervals (n)")
		sk       = cliflags.Sketcher(fs, " (must match NOC and monitors)")
		seed     = fs.Uint64("seed", 42, "shared randomness seed (randproj only)")
		peersStr = fs.String("peers", "", "comma-separated aggregator candidate addresses (incl. this one) pushed to monitors for failover")
		epoch    = fs.Uint64("shard-epoch", 1, "version of the pushed candidate list (bump when -peers changes)")
		dialTO   = fs.Duration("dial-timeout", 5*time.Second, "NOC dial timeout")
		fetch    = cliflags.Fetch(fs, 2*time.Second, "timeout for one downstream sketch-pull round", 1, "extra downstream pull rounds re-requesting missing responses")
		degraded = cliflags.Degraded(fs, true, "serve unresponsive monitors' flows from cached snapshots (flagged upstream)", "snapshot")
		pendIntv = fs.Int("pending-intervals", 8, "partially-reported intervals buffered for the merged volume forward")
		reconn   = cliflags.Reconnect(fs)
		metrics  = cliflags.Metrics(fs, "/metrics and /healthz")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fam, err := sk.Family()
	if err != nil {
		return err
	}
	var peers []string
	if strings.TrimSpace(*peersStr) != "" {
		for _, p := range strings.Split(*peersStr, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
	}
	svc, err := agg.New(agg.Config{
		ID:                  *id,
		Family:              fam,
		NumFlows:            *flows,
		WindowLen:           *window,
		SketchLen:           sk.Len,
		Seed:                *seed,
		Peers:               peers,
		ShardEpoch:          *epoch,
		FetchTimeout:        fetch.Timeout,
		FetchRetries:        fetch.Retries,
		FetchBackoff:        fetch.Backoff,
		FetchBackoffMax:     fetch.BackoffMax,
		Degraded:            agg.DegradedPolicy{Enabled: degraded.Enabled, MaxStaleness: degraded.MaxStaleness},
		MaxPendingIntervals: *pendIntv,
		Reconnect:           reconn.Enabled,
		ReconnectBackoff:    reconn.Backoff,
		ReconnectBackoffMax: reconn.BackoffMax,
		Log:                 obs.NewLogger(os.Stderr, slog.LevelInfo, "agg"),
		MetricsAddr:         metrics.Addr,
	})
	if err != nil {
		return err
	}
	if err := svc.Serve(*listen); err != nil {
		return err
	}
	if err := svc.ConnectNOC(*nocAddr, *dialTO); err != nil {
		_ = svc.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "sketchpca-agg: %s listening on %s, upstream %s (m=%d n=%d sketch=%d family=%s peers=%d)\n",
		*id, svc.Addr(), *nocAddr, *flows, *window, sk.Len, fam, len(peers))

	stopStats := metrics.LogEvery(svc.LogSummary)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "sketchpca-agg: shutting down")
	stopStats()
	svc.LogSummary()
	return svc.Close()
}
