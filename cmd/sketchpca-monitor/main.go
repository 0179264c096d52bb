// Command sketchpca-monitor runs a local-monitor daemon: it maintains the
// local sketch state (-sketcher randproj: per-flow variance histograms;
// -sketcher fd: a Frequent Directions buffer), streams per-interval volume
// reports to the NOC and answers its sketch pulls.
//
// Volumes arrive on stdin as CSV rows "interval,v0,v1,..." (for example a
// column slice of trafficgen output); -columns selects which CSV columns
// (0-based, after the interval column) map to this monitor's -flows.
// Alternatively -ingest-listen switches the daemon to live ingestion: it
// collects NetFlow v5 datagrams over UDP, aggregates them into per-interval
// OD volume rows (internal/ingest) and reports this monitor's -flows slice
// of each sealed row. SIGINT/SIGTERM shut down gracefully: the collector
// stops reading, and the current partial interval is sealed and reported
// before the NOC link closes.
//
// Usage:
//
//	trafficgen -intervals 8064 | sketchpca-monitor \
//	    -noc 127.0.0.1:7100 -id mon-east \
//	    -flows 0,1,2,9,10,11 -columns 0,1,2,9,10,11 \
//	    -window 4032 -sketch 200 -seed 42
//
//	sketchpca-monitor -noc 127.0.0.1:7100 -id mon-east \
//	    -flows 0,1,2 -ingest-listen 127.0.0.1:2055 -interval 5m
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"streampca/internal/cliflags"
	"streampca/internal/flow"
	"streampca/internal/ingest"
	"streampca/internal/monitor"
	"streampca/internal/obs"
	"streampca/internal/randproj"
	"streampca/internal/trace"
	"streampca/internal/traffic"
	"streampca/internal/transport"
)

func main() {
	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdin, shutdown); err != nil {
		fmt.Fprintln(os.Stderr, "sketchpca-monitor:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, shutdown <-chan os.Signal) error {
	fs := flag.NewFlagSet("sketchpca-monitor", flag.ContinueOnError)
	var (
		nocAddr = fs.String("noc", "127.0.0.1:7100", "NOC address")
		aggsStr = fs.String("aggs", "", "comma-separated aggregator candidate addresses; when set the monitor registers with its rendezvous-preferred aggregator instead of -noc (federated topology)")
		id      = fs.String("id", "monitor-1", "monitor identifier")
		flowStr = fs.String("flows", "", "comma-separated global flow ids owned by this monitor")
		colStr  = fs.String("columns", "", "comma-separated stdin CSV columns feeding those flows (defaults to -flows)")
		window  = fs.Int("window", 4032, "sliding-window length (n)")
		sk      = cliflags.Sketcher(fs, " (must match the NOC)")
		epsilon = fs.Float64("epsilon", 0.01, "variance-histogram ε (randproj only)")
		seed    = fs.Uint64("seed", 42, "shared randomness seed (randproj only)")
		dialTO  = fs.Duration("dial-timeout", 5*time.Second, "NOC dial timeout")
		redial  = cliflags.Redial(fs)
		selfchk = cliflags.SelfCheck(fs, "validate the sketch state against an exact-window oracle every Nth interval (0 = off)")
		metrics = cliflags.Metrics(fs, "/metrics, /healthz and /debug/pprof")
		tracing = cliflags.Trace(fs, "append one JSONL audit record per received alarm to this file (off when empty)")

		ingListen = fs.String("ingest-listen", "", "UDP address for live NetFlow v5 ingestion (off when empty; replaces the stdin CSV path)")
		ingIntvl  = fs.Duration("interval", 5*time.Minute, "measurement interval length (ingest mode)")
		ingLate   = fs.Duration("ingest-lateness", 0, "accept records up to this much older than the stream head before sealing their interval")
		ingClock  = fs.String("ingest-clock", "record", "interval clock: record (exporter timestamps) or wall")
		routers   = fs.Int("routers", 0, "router count for the ingest routing table (0 = the Abilene topology)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	flows, err := parseIntList(*flowStr)
	if err != nil {
		return fmt.Errorf("-flows: %w", err)
	}
	if len(flows) == 0 {
		return fmt.Errorf("-flows is required")
	}
	cols := flows
	if *colStr != "" {
		cols, err = parseIntList(*colStr)
		if err != nil {
			return fmt.Errorf("-columns: %w", err)
		}
	}
	if len(cols) != len(flows) {
		return fmt.Errorf("%d columns for %d flows", len(cols), len(flows))
	}

	if *ingListen == "" {
		// CSV mode reads none of the ingest flags; an operator who set one
		// meant ingest mode.
		var stray string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "interval", "ingest-lateness", "ingest-clock", "routers":
				stray = f.Name
			}
		})
		if stray != "" {
			return fmt.Errorf("-%s needs -ingest-listen", stray)
		}
	}

	tracer, recorder, err := tracing.Open("monitor/" + *id)
	if err != nil {
		return err
	}
	defer func() { _ = recorder.Close() }()

	fam, err := sk.Family()
	if err != nil {
		return err
	}
	var aggs []string
	if strings.TrimSpace(*aggsStr) != "" {
		for _, a := range strings.Split(*aggsStr, ",") {
			if a = strings.TrimSpace(a); a != "" {
				aggs = append(aggs, a)
			}
		}
	}
	svc, err := monitor.New(monitor.Config{
		ID:             *id,
		Family:         fam,
		FlowIDs:        flows,
		WindowLen:      *window,
		Epsilon:        *epsilon,
		Sketch:         randproj.Config{Seed: *seed, SketchLen: sk.Len, WindowLen: *window},
		FDEll:          sk.Len,
		SelfCheckEvery: *selfchk,
		Redial:         *redial,
		Candidates:     aggs,
		Log:            obs.NewLogger(os.Stderr, slog.LevelInfo, "monitor"),
		MetricsAddr:    metrics.Addr,
		Trace:          tracer,
		FlightRecorder: recorder,
		OnAlarm: func(a transport.Alarm) {
			degraded := ""
			if a.Degraded {
				degraded = " degraded=true"
			}
			fmt.Fprintf(os.Stderr, "%s: ALARM interval=%d distance=%.4g threshold=%.4g%s\n",
				*id, a.Interval, a.Distance, a.Threshold, degraded)
		},
	})
	if err != nil {
		return err
	}
	// With -aggs, register with the rendezvous-preferred aggregator — the
	// walk a failover makes; otherwise the flat topology dials the NOC.
	upstream := *nocAddr
	if len(aggs) > 0 {
		if upstream, err = svc.Place(*dialTO); err != nil {
			return fmt.Errorf("no aggregator reachable: %w", err)
		}
	} else if err := svc.Connect(upstream, *dialTO); err != nil {
		return err
	}
	defer func() { _ = svc.Close() }()
	feed := "stdin"
	if *ingListen != "" {
		feed = "live ingest"
	}
	fmt.Fprintf(os.Stderr, "%s: connected to %s, feeding %d flows from %s\n", *id, upstream, len(flows), feed)
	if addr := svc.DiagAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "%s: diagnostics on http://%s/metrics\n", *id, addr)
	}
	defer metrics.LogEvery(svc.LogSummary)()

	if *ingListen != "" {
		return runIngest(svc, ingestOptions{
			listen:   *ingListen,
			interval: *ingIntvl,
			lateness: *ingLate,
			clock:    *ingClock,
			routers:  *routers,
			id:       *id,
			flows:    flows,
			shed:     redial.Enabled,
			trace:    tracer,
		}, shutdown)
	}

	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if lineNo == 1 && !isNumeric(fields[0]) {
			continue // header row
		}
		interval, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("line %d: interval %q: %w", lineNo, fields[0], err)
		}
		volumes := make([]float64, len(cols))
		for i, c := range cols {
			idx := c + 1 // skip the interval column
			if idx >= len(fields) {
				return fmt.Errorf("line %d: column %d beyond %d fields", lineNo, c, len(fields))
			}
			v, err := strconv.ParseFloat(fields[idx], 64)
			if err != nil {
				return fmt.Errorf("line %d column %d: %w", lineNo, c, err)
			}
			// ParseFloat accepts "NaN" and "Inf"; the sketch state does not.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("line %d column %d: non-finite volume %q", lineNo, c, fields[idx])
			}
			volumes[i] = v
		}
		// Interval indices start at 1 on the wire (0 is "never updated").
		if err := svc.ReportInterval(interval+1, volumes); err != nil {
			if redial.Enabled {
				// The link is down and being redialed; shedding intervals
				// beats killing the daemon (the NOC degrades gracefully).
				fmt.Fprintf(os.Stderr, "%s: interval %d not reported: %v\n", *id, interval+1, err)
				continue
			}
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return fmt.Errorf("stdin: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: input exhausted\n", *id)
	return nil
}

// ingestOptions carries the -ingest-* flag values into runIngest.
type ingestOptions struct {
	listen   string
	interval time.Duration
	lateness time.Duration
	clock    string
	routers  int
	id       string
	flows    []int
	shed     bool // shed intervals instead of failing while the NOC link redials
	trace    *trace.Tracer
}

// runIngest runs the live-ingestion loop: a UDP NetFlow collector feeding
// the aggregation pipeline whose sealed interval rows are sliced down to this
// monitor's flows and reported to the NOC. It blocks until shutdown fires,
// then drains: collector first (stop reading), pipeline second (seal the
// partial interval), so every received record still reaches the NOC before
// the link closes.
func runIngest(svc *monitor.Service, o ingestOptions, shutdown <-chan os.Signal) error {
	var (
		agg *flow.Aggregator
		err error
	)
	if o.routers == 0 {
		agg, err = traffic.NewAbileneAggregator()
	} else {
		var tbl *flow.Table
		tbl, err = traffic.BuildRoutingTable(o.routers)
		if err == nil {
			agg, err = flow.NewAggregator(tbl, o.routers, nil)
		}
	}
	if err != nil {
		return fmt.Errorf("ingest topology: %w", err)
	}
	for _, f := range o.flows {
		if f < 0 || f >= agg.NumFlows() {
			return fmt.Errorf("-flows: %d outside the %d-flow topology", f, agg.NumFlows())
		}
	}
	clock, err := ingest.ParseClock(o.clock)
	if err != nil {
		return fmt.Errorf("-ingest-clock: %w", err)
	}

	// The pipeline tags its own records component=ingest; only add the
	// monitor identity here.
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo})).
		With("monitor", o.id)
	sink := func(iv ingest.Interval) error {
		local := make([]float64, len(o.flows))
		for i, f := range o.flows {
			local[i] = iv.Volumes[f]
		}
		if err := svc.ReportInterval(iv.Seq, local); err != nil {
			if o.shed {
				log.Warn("interval not reported", "interval", iv.Seq, "err", err)
				return nil
			}
			return err
		}
		return nil
	}
	// The pipeline registers into the monitor's registry, so /metrics and
	// the -stats-every line cover the ingest counters too.
	p, err := ingest.NewPipeline(ingest.Config{
		Aggregator: agg,
		Interval:   o.interval,
		Clock:      clock,
		Lateness:   o.lateness,
		Sink:       sink,
		Obs:        svc.Registry(),
		Log:        log,
		Trace:      o.trace,
	})
	if err != nil {
		return err
	}
	c, err := ingest.Listen(o.listen, p)
	if err != nil {
		_ = p.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: ingesting NetFlow v5 on %s (interval %s, %d flows of %d)\n",
		o.id, c.Addr(), o.interval, len(o.flows), agg.NumFlows())

	<-shutdown
	fmt.Fprintf(os.Stderr, "%s: shutting down: draining ingest and sealing the open interval\n", o.id)
	cerr := c.Close()
	perr := p.Close()
	if cerr != nil {
		return cerr
	}
	return perr
}

func parseIntList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("%q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func isNumeric(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}
