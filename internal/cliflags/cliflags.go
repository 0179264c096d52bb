// Package cliflags registers the flag groups sketchpca-noc, sketchpca-agg and
// sketchpca-monitor share, so a flag's name and meaning are written once. The
// link-policy groups fill internal/tier's policy types directly; where the
// daemons differ (their tier role's pull defaults, some wording) each group
// takes that as an argument and fixes the rest.
package cliflags

import (
	"flag"
	"fmt"
	"strings"
	"time"
	"unicode"

	"streampca/internal/tier"
	"streampca/internal/trace"
)

// Pull registers -fetch-timeout into the returned policy, its default def's;
// the rest of the policy is the tier role's. The value is set once fs is
// parsed.
func Pull(fs *flag.FlagSet, def tier.PullPolicy, timeoutHelp string) *tier.PullPolicy {
	p := &tier.PullPolicy{}
	fs.DurationVar(&p.Timeout, "fetch-timeout", def.Timeout, timeoutHelp)
	return p
}

// Degraded registers -degraded and -max-staleness. cached names what is
// aged ("cache", "snapshot").
func Degraded(fs *flag.FlagSet, enabled bool, enabledHelp, cached string) *tier.DegradedPolicy {
	p := &tier.DegradedPolicy{}
	fs.BoolVar(&p.Enabled, "degraded", enabled, enabledHelp)
	fs.Int64Var(&p.MaxStaleness, "max-staleness", 0, "degraded mode: max "+cached+" age in intervals (0 = window/4)")
	return p
}

// Redial registers -reconnect; the daemons redial by default, paced by
// tier.DefaultRedial.
func Redial(fs *flag.FlagSet) *tier.RedialPolicy {
	p := &tier.RedialPolicy{}
	fs.BoolVar(&p.Enabled, "reconnect", true, "redial the NOC automatically when the link drops")
	return p
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

// List splits a comma-separated flag value; spaces around entries and empty
// entries are dropped.
func List(v string) []string {
	return strings.FieldsFunc(v, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
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
	fs.IntVar(&v.sample, "trace-sample", 1, "with -trace, keep every trace whose id % N == 0 (1 = all)")
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
