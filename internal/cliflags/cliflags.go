// Package cliflags registers the flag groups sketchpca-noc, sketchpca-agg and
// sketchpca-monitor share, so a flag's name and meaning are written once. The
// daemons' defaults differ where their tiers do (a NOC waits 5s for a pull
// round and retries twice, an aggregator 2s and once) and so does some of the
// wording; each group takes those as arguments and fixes the rest.
package cliflags

import (
	"flag"
	"fmt"
	"time"

	"streampca/internal/sketch"
	"streampca/internal/trace"
)

// FetchValues holds the -fetch-* group: the sketch-pull retry rounds.
type FetchValues struct {
	Timeout    time.Duration
	Retries    int
	Backoff    time.Duration
	BackoffMax time.Duration
}

// Fetch registers -fetch-timeout, -fetch-retries, -fetch-backoff and
// -fetch-backoff-max; the values are set once fs is parsed.
func Fetch(fs *flag.FlagSet, timeout time.Duration, timeoutHelp string, retries int, retriesHelp string) *FetchValues {
	v := &FetchValues{}
	fs.DurationVar(&v.Timeout, "fetch-timeout", timeout, timeoutHelp)
	fs.IntVar(&v.Retries, "fetch-retries", retries, retriesHelp)
	fs.DurationVar(&v.Backoff, "fetch-backoff", 50*time.Millisecond, "initial retry backoff (doubles per round, jittered)")
	fs.DurationVar(&v.BackoffMax, "fetch-backoff-max", time.Second, "retry backoff cap")
	return v
}

// DegradedValues holds the degraded-mode group.
type DegradedValues struct {
	Enabled      bool
	MaxStaleness int64
}

// Degraded registers -degraded and -max-staleness. cached names what is
// aged ("cache", "snapshot").
func Degraded(fs *flag.FlagSet, enabled bool, enabledHelp, cached string) *DegradedValues {
	v := &DegradedValues{}
	fs.BoolVar(&v.Enabled, "degraded", enabled, enabledHelp)
	fs.Int64Var(&v.MaxStaleness, "max-staleness", 0, "degraded mode: max "+cached+" age in intervals (0 = window/4)")
	return v
}

// ReconnectValues holds the upstream-redial group.
type ReconnectValues struct {
	Enabled    bool
	Backoff    time.Duration
	BackoffMax time.Duration
}

// Reconnect registers -reconnect, -reconnect-backoff and
// -reconnect-backoff-max.
func Reconnect(fs *flag.FlagSet) *ReconnectValues {
	v := &ReconnectValues{}
	fs.BoolVar(&v.Enabled, "reconnect", true, "redial the NOC automatically when the link drops")
	fs.DurationVar(&v.Backoff, "reconnect-backoff", 200*time.Millisecond, "initial redial backoff (doubles per attempt)")
	fs.DurationVar(&v.BackoffMax, "reconnect-backoff-max", 5*time.Second, "redial backoff cap")
	return v
}

// MetricsValues holds the diagnostics group.
type MetricsValues struct {
	Addr       string
	StatsEvery time.Duration
}

// Metrics registers -metrics-addr and -stats-every. endpoints lists what the
// daemon's diagnostics server serves.
func Metrics(fs *flag.FlagSet, endpoints string) *MetricsValues {
	v := &MetricsValues{}
	fs.StringVar(&v.Addr, "metrics-addr", "", "serve "+endpoints+" on this address (off when empty)")
	fs.DurationVar(&v.StatsEvery, "stats-every", 0, "log a one-line stats summary at this period (off when 0)")
	return v
}

// LogEvery calls summary every -stats-every until the returned stop function
// is called, which waits for the ticker goroutine to exit; with the flag at 0
// it does nothing.
func (v *MetricsValues) LogEvery(summary func()) (stop func()) {
	if v.StatsEvery <= 0 {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(v.StatsEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				summary()
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// SketcherValues holds the sketcher-family group.
type SketcherValues struct {
	family string
	// Len is -sketch: the projection length l for randproj, the basis
	// budget ℓ for fd.
	Len int
}

// Sketcher registers -sketcher and -sketch. mustMatch is appended to the
// -sketcher help (which peers have to run the same family).
func Sketcher(fs *flag.FlagSet, mustMatch string) *SketcherValues {
	v := &SketcherValues{}
	fs.StringVar(&v.family, "sketcher", "randproj", "sketcher family: randproj or fd"+mustMatch)
	fs.IntVar(&v.Len, "sketch", 200, "sketch length (l for -sketcher randproj, basis budget ℓ for fd)")
	return v
}

// Family parses -sketcher.
func (v *SketcherValues) Family() (sketch.Family, error) {
	fam, err := sketch.ParseFamily(v.family)
	if err != nil {
		return fam, fmt.Errorf("-sketcher: %w", err)
	}
	return fam, nil
}

// SelfCheck registers -selfcheck, the every-Nth-interval oracle validation.
func SelfCheck(fs *flag.FlagSet, help string) *int {
	return fs.Int("selfcheck", 0, help)
}

// TraceValues holds the tracing and audit group.
type TraceValues struct {
	on     bool
	sample int
	flight string
}

// Trace registers -trace, -trace-sample and -flight-recorder. flightHelp says
// what the daemon appends a record for.
func Trace(fs *flag.FlagSet, flightHelp string) *TraceValues {
	v := &TraceValues{}
	fs.BoolVar(&v.on, "trace", false, "record interval-lineage spans, served on /debug/trace (needs -metrics-addr to be visible)")
	fs.IntVar(&v.sample, "trace-sample", 1, "with -trace, keep every trace whose id %% N == 0 (1 = all)")
	fs.StringVar(&v.flight, "flight-recorder", "", flightHelp)
	return v
}

// Open builds what the group asked for: the tracer (nil without -trace) and
// the flight recorder (nil without -flight-recorder), which the caller closes.
func (v *TraceValues) Open(component string) (*trace.Tracer, *trace.FlightRecorder, error) {
	var tracer *trace.Tracer
	if v.on {
		tracer = trace.New(trace.Config{Component: component, Sample: v.sample})
	}
	if v.flight == "" {
		return tracer, nil, nil
	}
	recorder, err := trace.OpenFlightRecorder(v.flight)
	if err != nil {
		return nil, nil, fmt.Errorf("-flight-recorder: %w", err)
	}
	return tracer, recorder, nil
}
