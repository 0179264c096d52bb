package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// class is the path an interval took through the lazy protocol.
type class int

const (
	quiet   class = iota // decided against the model in force
	refresh              // fetched and rebuilt, no alarm
	alarmed              // still anomalous after the rebuild
)

func classOf(refreshed, anomalous bool) class {
	switch {
	case anomalous:
		return alarmed
	case refreshed:
		return refresh
	}
	return quiet
}

// stageRow is one line of the stage table: the p50 of a stage's time per
// interval on the quiet and on the alarm path.
type stageRow struct {
	Stage   string  `json:"stage"`
	QuietUs float64 `json:"quiet_us"`
	AlarmUs float64 `json:"alarm_us"`
}

// result is one workload's run as written to a result file (-out): the
// metrics, the verdict and the host record. The contract line on stdout
// carries a subset of it.
type result struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Host     hostInfo `json:"host"`
	// HostStealFrac is steal jiffies over total jiffies during the run;
	// Disturbed flags a run the host slowed. Diagnostics, not metrics.
	HostStealFrac float64 `json:"host_steal_frac"`
	Disturbed     bool    `json:"disturbed"`
	// Truncated marks a run whose deadline passed before all N intervals
	// were handed in (or replayed); the rest were not attempted.
	Truncated  bool     `json:"truncated"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	FailedFrac float64  `json:"failed_frac"`
	Correct    bool     `json:"correct"`
	Failures   []string `json:"failures,omitempty"`

	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer"`
	Stages   []stageRow        `json:"stages"`
}

// maxFailuresKept bounds the failure messages kept in a result.
const maxFailuresKept = 8

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailuresKept {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// verify checks every deployed decision against the staged driver's on the
// same inputs: equal flags, distance and threshold to 1e-9 relative, equal
// culprits, and the culprits attached to every monitor's alarm. An interval
// that timed out or disagrees is failed.
func (r *result) verify(dep *deployedRun, st *stagedRun) {
	r.Attempted = len(dep.samples)
	if len(st.decisions) < r.Attempted {
		r.Attempted = len(st.decisions) // the staged replay hit its deadline: the rest are unverified
	}
	for i := 0; i < r.Attempted; i++ {
		got, want := dep.samples[i], st.decisions[i]
		switch {
		case got.err != nil:
			r.fail("interval %d: %v", got.interval, got.err)
		case got.result.Anomalous != want.result.Anomalous || got.result.Refreshed != want.result.Refreshed:
			r.fail("interval %d: deployed (anomalous %v, refreshed %v), staged (anomalous %v, refreshed %v)", got.interval,
				got.result.Anomalous, got.result.Refreshed, want.result.Anomalous, want.result.Refreshed)
		case relDiff(got.result.Distance, want.result.Distance) > 1e-9 || relDiff(got.result.Threshold, want.result.Threshold) > 1e-9:
			r.fail("interval %d: deployed distance %v threshold %v, staged %v %v", got.interval,
				got.result.Distance, got.result.Threshold, want.result.Distance, want.result.Threshold)
		case !slices.Equal(got.culprits, want.culprits):
			r.fail("interval %d: deployed culprits %v, staged %v", got.interval, got.culprits, want.culprits)
		case got.result.Anomalous && got.alarmCulprits != len(got.culprits):
			r.fail("interval %d: an alarm carried %d culprits, the decision %d", got.interval, got.alarmCulprits, len(got.culprits))
		}
	}
	if r.Attempted > 0 {
		r.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	}
	r.Truncated = dep.truncated || st.truncated
	if c := dep.counters; c.ingestDropped != 0 || c.fetchRetries != 0 {
		r.fail("ingest dropped %d records, sketch pulls retried %d times; both must be 0", c.ingestDropped, c.fetchRetries)
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// fromDeployed fills what the deployed run, tracing off, gives: the
// end-to-end metrics a user of the system would see, and the layer metrics
// read at the deployed boundary. Every time is scaled to the reference host's
// speed by the slowdown measured just before its interval (see hostClock).
func (r *result) fromDeployed(dep *deployedRun) {
	var byClass [3]series
	var wire [3][]int64
	var all, reports, waits series
	var slowdowns []float64
	var cycles, cpu time.Duration
	for _, s := range dep.samples {
		if s.err != nil {
			continue
		}
		c := classOf(s.result.Refreshed, s.result.Anomalous)
		lat := s.total
		if c == alarmed {
			lat = s.alarm
		}
		byClass[c] = append(byClass[c], atRef(lat, s.slowdown))
		wire[c] = append(wire[c], s.wire)
		all = append(all, atRef(s.total, s.slowdown))
		reports = append(reports, atRef(s.report, s.slowdown))
		if c == quiet {
			waits = append(waits, atRef(s.wait, s.slowdown))
		}
		cycles += atRef(s.cycle, s.slowdown)
		cpu += atRef(s.cpu, s.slowdown)
		slowdowns = append(slowdowns, s.slowdown)
	}
	n := float64(len(all))
	tail, which := all.tail()
	r.EndToEnd = map[string]metric{
		"setup_s":                   {Value: dep.setups.p50().Seconds(), Unit: "s", Samples: len(dep.setups)},
		"quiet_p50_ms":              msMetric(byClass[quiet]),
		"alarm_p50_ms":              msMetric(byClass[alarmed]),
		"intervals_per_s":           {Value: safeDiv(n, cycles.Seconds()), Unit: "1/s", Samples: len(all)},
		"cpu_ms_per_interval":       {Value: safeDiv(ms(cpu), n), Unit: "ms", Samples: len(all)},
		"wire_bytes_quiet_interval": {Value: float64(quantileOf(wire[quiet], 0.5)), Unit: "B", Samples: len(wire[quiet])},
		"wire_bytes_alarm_interval": {Value: float64(quantileOf(wire[alarmed], 0.5)), Unit: "B", Samples: len(wire[alarmed])},
		"alloc_kib_per_interval":    {Value: safeDiv(float64(dep.alloc)/1024, n), Unit: "KiB", Samples: len(all)},
		"heap_live_mib":             {Value: float64(dep.heapLive) / (1 << 20), Unit: "MiB"},
	}
	// The deployed-boundary layer metrics come from the same samples.
	c := dep.counters
	r.PerLayer = map[string]metric{
		"interval_p50_ms":              msMetric(all),
		"interval_tail_ms":             {Value: ms(tail), Unit: "ms", Samples: len(all), Note: which},
		"refresh_p50_ms":               msMetric(byClass[refresh]),
		"monitor.report_us":            usMetric(reports),
		"noc.decision_wait_us":         usMetric(waits),
		"noc.fetches":                  count(c.fetchCount),
		"noc.fetch_retries":            count(c.fetchRetries),
		"noc.fetch_ms":                 {Value: safeDiv(c.fetchSeconds*1e3, float64(c.fetchCount)), Unit: "ms", Samples: int(c.fetchCount), Note: "mean, as measured"},
		"core.refreshes":               count(c.nocRefreshes),
		"core.alarms":                  count(c.nocAlarms),
		"core.alarms_per_refresh":      {Value: safeDiv(float64(c.nocAlarms), float64(c.nocRefreshes)), Unit: "ratio"},
		"agg.merges":                   count(c.aggMerges),
		"agg.shard_skew":               {Value: dep.in.shardSkew(), Unit: "ratio"},
		"transport.msgs_per_interval":  {Value: safeDiv(float64(c.msgsSent), n), Unit: "count"},
		"transport.bytes_per_interval": {Value: safeDiv(float64(c.bytesSent), n), Unit: "B", Note: "mean over the run's class mix"},
		"sketch.state_size":            count(dep.stateSize),
		"ingest.records":               count(c.ingestRecords),
		"ingest.datagrams":             count(c.ingestDatagrams),
		"ingest.dropped":               count(c.ingestDropped),
		"host.slowdown_p50":            {Value: quantileOf(slowdowns, 0.5), Unit: "ratio", Samples: len(slowdowns)},
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fromStaged fills the per-layer metrics the staged spans give, and the glue
// rows: the deployed p50 of a path minus the sum of the staged stage p50s on
// it, so that the stage table plus glue equals the end-to-end figure.
func (r *result) fromStaged(dep *deployedRun, st *stagedRun, perSpan time.Duration) {
	// Group the spans: per call by stage, and per interval by stage.
	perCall := map[string]series{}
	type totals map[string]time.Duration
	perInterval := map[int64]totals{}
	var traced time.Duration
	first := dep.in.firstMeasured()
	for _, sp := range st.spans {
		if sp.Name == stInterval {
			traced += sp.dur()
			continue
		}
		d := atRef(sp.dur(), st.slowdowns[sp.Interval-first])
		perCall[sp.Name] = append(perCall[sp.Name], d)
		if perInterval[sp.Interval] == nil {
			perInterval[sp.Interval] = totals{}
		}
		perInterval[sp.Interval][sp.Name] += d
	}
	// byClass[c][stage] is the series of that stage's per-interval totals
	// over the intervals of class c; everyInterval ignores the class.
	var byClass [3]map[string]series
	for c := range byClass {
		byClass[c] = map[string]series{}
	}
	everyInterval := map[string]series{}
	for i, d := range st.decisions {
		c := classOf(d.result.Refreshed, d.result.Anomalous)
		tot := perInterval[first+int64(i)]
		for _, stage := range pathStages {
			if v, ok := tot[stage]; ok {
				byClass[c][stage] = append(byClass[c][stage], v)
				everyInterval[stage] = append(everyInterval[stage], v)
			}
		}
	}
	// A fetch happens on refreshed and on alarmed intervals alike.
	perFetch := func(stage string) series {
		return append(append(series(nil), byClass[refresh][stage]...), byClass[alarmed][stage]...)
	}

	var quietSum, alarmSum time.Duration
	r.Stages = nil
	for _, stage := range pathStages {
		q, a := byClass[quiet][stage].p50(), byClass[alarmed][stage].p50()
		if q == 0 && a == 0 {
			continue
		}
		quietSum += q
		alarmSum += a
		r.Stages = append(r.Stages, stageRow{Stage: stage, QuietUs: us(q), AlarmUs: us(a)})
	}

	m := float64(dep.in.numFlows())
	update := everyInterval[stUpdate]
	var culprits, alarms float64
	for _, d := range st.decisions {
		if d.result.Anomalous {
			alarms++
			culprits += float64(len(d.culprits))
		}
	}
	ingestBusy := perCall[stIngestHandle].sum() + perCall[stIngestSeal].sum()
	p := r.PerLayer
	p["ingest.handle_us_per_datagram"] = metric{Value: safeDiv(us(perCall[stIngestHandle].sum()), float64(st.datagrams)), Unit: "us", Samples: int(st.datagrams), Note: "mean"}
	p["ingest.records_per_s"] = metric{Value: safeDiv(float64(st.records), ingestBusy.Seconds()), Unit: "1/s", Samples: int(st.records)}
	p["ingest.seal_wait_us"] = usMetric(everyInterval[stIngestSeal])
	p["sketch.update_us"] = usMetric(update)
	p["sketch.update_ns_per_flow"] = metric{Value: float64(update.p50()) / m, Unit: "ns", Samples: len(update)}
	p["sketch.snapshot_us"] = usMetric(perFetch(stSnapshot))
	p["transport.volume_codec_us"] = usMetric(perCall[stVolume])
	p["transport.sketch_codec_us"] = usMetric(perCall[stSketch])
	p["transport.volume_msg_bytes"] = metric{Value: float64(quantileOf(st.volumeBytes, 0.5)), Unit: "B", Samples: len(st.volumeBytes)}
	p["transport.sketch_msg_bytes"] = metric{Value: float64(quantileOf(st.sketchBytes, 0.5)), Unit: "B", Samples: len(st.sketchBytes)}
	p["agg.merge_us"] = usMetric(perFetch(stMerge))
	p["noc.assemble_us"] = usMetric(perCall[stAssemble])
	p["core.distance_us"] = usMetric(perCall[stDistance])
	p["core.rebuild_ms"] = msMetric(perCall[stRebuild])
	p["mat.gram_ms"] = msMetric(perCall[stGram])
	p["mat.eigen_ms"] = msMetric(perCall[stEigen])
	p["anomography.identify_us"] = usMetric(perCall[stIdentify])
	p["anomography.identified_flows"] = metric{Value: safeDiv(culprits, alarms), Unit: "count", Samples: int(alarms), Note: "mean"}
	p["glue.quiet_unattributed_us"] = metric{Value: r.EndToEnd["quiet_p50_ms"].Value*1e3 - us(quietSum), Unit: "us"}
	p["glue.alarm_unattributed_ms"] = metric{Value: r.EndToEnd["alarm_p50_ms"].Value - ms(alarmSum), Unit: "ms"}
	p["trace.spans"] = count(int64(len(st.spans)))
	p["trace.overhead_frac"] = metric{Value: safeDiv(float64(len(st.spans))*float64(perSpan), float64(traced)), Unit: "ratio"}
}
