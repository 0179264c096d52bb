// Package obs is the stdlib-only observability layer shared by the
// monitor, NOC and transport packages: an atomic metrics registry
// (counters, gauges, fixed-bucket histograms) with Prometheus text
// exposition, per-component structured logging on log/slog, component
// health tracking, and an HTTP diagnostics server exposing /metrics,
// /healthz and /debug/pprof.
//
// The paper's claims are performance claims — O(w·log n) monitor updates,
// O(m²·log n) NOC retrains, the §IV-C lazy pull protocol's communication
// savings — so every hot path records its cost here and every future
// scaling PR measures against the same registry.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant metric dimension, e.g. {direction="sent"}.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricKind discriminates the three supported metric families.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters never decrease).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket latency/size histogram. Bounds are upper
// bucket edges in ascending order; an implicit +Inf bucket is always last.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, the last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-updated
	count  atomic.Int64
}

// DefLatencyBuckets spans 1µs…10s, suitable for both the O(w·log n)
// monitor update (microseconds) and the O(m²·log n) NOC retrain
// (milliseconds to seconds).
var DefLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the upper bucket edges (exclusive of +Inf).
	Bounds []float64
	// Counts[i] is the non-cumulative count of bucket i; the final extra
	// element is the +Inf bucket.
	Counts []int64
	// Sum is the total of all observed values, Count their number.
	Sum   float64
	Count int64
}

// Snapshot copies the histogram state. Concurrent Observes may straddle the
// copy; totals are eventually consistent, which is fine for exposition.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// series is one labeled instance within a family.
type series struct {
	labels    []Label // sorted by name
	labelKey  string  // canonical rendering, "" for unlabeled
	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64 // histogram families only
	order  []string
	series map[string]*series
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Metric handles are get-or-create: asking twice for the
// same name+labels returns the same instance, so instrumentation sites and
// the tests that read them share counters without plumbing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter name{labels...}, registering it on first use.
// Panics if name is already registered as a different kind (programmer
// error, like a duplicate flag name).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, nil, labels).counter
}

// Gauge returns the gauge name{labels...}, registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, nil, labels).gauge
}

// Histogram returns the histogram name{labels...}, registering it on first
// use. Buckets are ascending upper bounds; nil means DefLatencyBuckets.
// The first registration of a family fixes its buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	return r.lookup(name, help, kindHistogram, buckets, labels).histogram
}

func (r *Registry) lookup(name, help string, kind metricKind, buckets []float64, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, l := range sorted {
		if !validName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l.Name, name))
		}
	}
	key := renderLabels(sorted)

	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		if kind == kindHistogram {
			if !sort.Float64sAreSorted(buckets) || len(buckets) == 0 {
				panic(fmt.Sprintf("obs: histogram %q needs ascending non-empty buckets", name))
			}
			fam.bounds = append([]float64(nil), buckets...)
		}
		r.families[name] = fam
		r.order = append(r.order, name)
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q is a %s, requested as %s", name, fam.kind, kind))
	}
	s, ok := fam.series[key]
	if !ok {
		s = &series{labels: sorted, labelKey: key}
		switch kind {
		case kindCounter:
			s.counter = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			h := &Histogram{bounds: fam.bounds}
			h.counts = make([]atomic.Int64, len(fam.bounds)+1)
			s.histogram = h
		}
		fam.series[key] = s
		fam.order = append(fam.order, key)
	}
	return s
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), deterministically ordered by
// registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	// Snapshot the family structure under the lock; values are read from
	// atomics afterwards.
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, fam := range fams {
		if fam.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam.name, fam.kind)
		for _, key := range fam.order {
			s := fam.series[key]
			switch fam.kind {
			case kindCounter:
				fmt.Fprintf(bw, "%s%s %d\n", fam.name, key, s.counter.Value())
			case kindGauge:
				fmt.Fprintf(bw, "%s%s %s\n", fam.name, key, formatFloat(s.gauge.Value()))
			case kindHistogram:
				snap := s.histogram.Snapshot()
				var cum int64
				for i, bound := range snap.Bounds {
					cum += snap.Counts[i]
					fmt.Fprintf(bw, "%s_bucket%s %d\n",
						fam.name, withLE(s.labels, formatFloat(bound)), cum)
				}
				cum += snap.Counts[len(snap.Bounds)]
				fmt.Fprintf(bw, "%s_bucket%s %d\n", fam.name, withLE(s.labels, "+Inf"), cum)
				fmt.Fprintf(bw, "%s_sum%s %s\n", fam.name, key, formatFloat(snap.Sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", fam.name, key, snap.Count)
			}
		}
	}
	return bw.Flush()
}

// LogArgs returns every unlabeled counter and gauge as slog key/value pairs
// in registration order, each keyed by its metric name as WritePrometheus
// prints it: a service's periodic summary line is this call. Labeled series
// and histograms stay on /metrics; every histogram's count already has a
// counter beside it.
func (r *Registry) LogArgs() []any {
	r.mu.Lock()
	defer r.mu.Unlock()
	var args []any
	for _, name := range r.order {
		fam := r.families[name]
		s, ok := fam.series[""]
		if !ok {
			continue
		}
		switch fam.kind {
		case kindCounter:
			args = append(args, name, s.counter.Value())
		case kindGauge:
			args = append(args, name, s.gauge.Value())
		}
	}
	return args
}

// renderLabels produces the canonical {a="b",c="d"} suffix ("" when empty).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// withLE renders the label suffix with an le label appended (histogram
// bucket lines).
func withLE(labels []Label, le string) string {
	var b strings.Builder
	b.WriteByte('{')
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`",`)
	}
	b.WriteString(`le="`)
	b.WriteString(le)
	b.WriteString(`"}`)
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// validName checks the Prometheus metric/label name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]* (colons allowed in metric names only; we accept
// them in both for simplicity).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
