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
//	sketchpca-agg -listen 127.0.0.1:7201 -noc 127.0.0.1:7100 -id agg-east \
//	    -peers 127.0.0.1:7201,127.0.0.1:7202,127.0.0.1:7203
//
// The aggregator dials the NOC before it serves: it adopts the protocol
// parameters the NOC announces and announces them to its monitors. -peers
// lists every aggregator fronting the same NOC (including this one); it is
// pushed to registering monitors so they can re-place themselves by
// rendezvous hashing if this aggregator dies. Monitors pick their
// aggregator with sketchpca-monitor -aggs.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"streampca/internal/agg"
	"streampca/internal/cliflags"
	"streampca/internal/obs"
	"streampca/internal/tier"
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
		peersStr = fs.String("peers", "", "comma-separated aggregator candidate addresses (incl. this one) pushed to monitors for failover")
		epoch    = fs.Uint64("shard-epoch", 1, "version of the pushed candidate list (bump when -peers changes)")
		pull     = cliflags.Pull(fs, tier.AggPull, "timeout for one downstream sketch-pull round")
		degraded = cliflags.Degraded(fs, true, "serve unresponsive monitors' flows from cached snapshots (flagged upstream)", "snapshot")
		redial   = cliflags.Redial(fs)
		metrics  = cliflags.Metrics(fs, "/metrics and /healthz")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	peers := cliflags.List(*peersStr)
	svc, err := agg.New(agg.Config{
		ID:          *id,
		Peers:       peers,
		ShardEpoch:  *epoch,
		Pull:        *pull,
		Degraded:    *degraded,
		Redial:      *redial,
		Log:         obs.NewLogger(os.Stderr, slog.LevelInfo, "agg"),
		MetricsAddr: metrics.Addr,
	})
	if err != nil {
		return err
	}
	if err := svc.ConnectNOC(*nocAddr, tier.DialTimeout); err != nil {
		_ = svc.Close()
		return err
	}
	if err := svc.Serve(*listen); err != nil {
		_ = svc.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "sketchpca-agg: %s listening on %s, upstream %s (%+v, %d peers)\n",
		*id, svc.Addr(), *nocAddr, svc.Params(), len(peers))

	stopStats := metrics.LogEvery(svc.LogSummary)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "sketchpca-agg: shutting down")
	stopStats()
	svc.LogSummary()
	return svc.Close()
}
