// Command abilene-eval regenerates the paper's evaluation figures (§VI) on
// the synthetic Abilene substrate. Each figure prints the same rows/series
// the paper reports; EXPERIMENTS.md records the comparison.
//
// Usage:
//
//	abilene-eval -figure 5          # coordinated-anomaly time series
//	abilene-eval -figure 7          # Type I/II surface, 5-minute intervals
//	abilene-eval -figure 8          # Type I/II surface, 1-minute intervals
//	abilene-eval -figure 9          # errors vs sketch length at r = 6
//	abilene-eval -figure 10         # NOC computation overhead
//	abilene-eval -bounds            # empirical Lemma 5/6, Theorem 2 checks
//	abilene-eval -shootout          # sketcher family comparison
//	abilene-eval -identify          # per-flow identification scorecard
//	abilene-eval -figure 7 -full    # paper-scale run (hours)
//
// The default runs use a documented scaled-down grid (the whole suite is
// seconds, see EXPERIMENTS.md); -full switches to the paper's dimensions.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"streampca/internal/core"
	"streampca/internal/eval"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
	"streampca/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "abilene-eval:", err)
		os.Exit(1)
	}
}

type params struct {
	figure       string
	bounds       bool
	oracle       bool
	comm         bool
	shootout     bool
	identify     bool
	idMinP3      float64
	idMinRecall  float64
	idFDMonitors int
	full         bool
	seed         int64
	refitEvery   int
	epsilon      float64
	alpha        float64
	shootSketch  int
	fdEll        int
	monitors     int
	trace        string
	traceWindow  int
	dist         randproj.Distribution
}

// parseDist maps the -dist flag to a projection family.
func parseDist(s string) (randproj.Distribution, error) {
	switch strings.ToLower(s) {
	case "", "gaussian":
		return randproj.Gaussian, nil
	case "tugofwar", "tug-of-war":
		return randproj.TugOfWar, nil
	case "sparse":
		return randproj.Sparse, nil
	case "verysparse", "very-sparse":
		return randproj.VerySparse, nil
	default:
		return 0, fmt.Errorf("unknown distribution %q (want gaussian, tugofwar, sparse or verysparse)", s)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("abilene-eval", flag.ContinueOnError)
	var p params
	fs.StringVar(&p.figure, "figure", "", "figure to regenerate: 5, 7, 8, 9, 10 or all")
	fs.BoolVar(&p.bounds, "bounds", false, "run the empirical error-bound checks")
	fs.BoolVar(&p.oracle, "oracle", false, "differentially validate the streaming pipeline against exact oracles")
	fs.BoolVar(&p.full, "full", false, "paper-scale dimensions (slow)")
	fs.Int64Var(&p.seed, "seed", 2008, "workload seed")
	fs.IntVar(&p.refitEvery, "refit", 8, "retraining cadence in intervals (1 = paper cost model)")
	fs.Float64Var(&p.epsilon, "epsilon", 0.01, "variance-histogram ε (paper: 0.01)")
	fs.Float64Var(&p.alpha, "alpha", 0.01, "Q-statistic false-alarm rate (paper: 0.01)")
	fs.BoolVar(&p.comm, "comm", false, "report the lazy protocol's communication cost")
	fs.BoolVar(&p.shootout, "shootout", false, "run the sketcher-family shoot-out (randproj, fd) with per-family oracle checks")
	fs.BoolVar(&p.identify, "identify", false, "score per-flow identification on the labeled attack suite (online pursuit per family + offline PCP comparator)")
	fs.Float64Var(&p.idMinP3, "identify-min-p3", 0, "gate: fail unless every online family's precision@3 meets this floor (0 = no gate)")
	fs.Float64Var(&p.idMinRecall, "identify-min-recall", 0, "gate: fail unless every online family's recall meets this floor (0 = no gate)")
	fs.IntVar(&p.idFDMonitors, "identify-fd-monitors", 1, "monitor count for the fd identification row (narrow fd shards cannot hold rank r plus residual spectrum)")
	fs.IntVar(&p.shootSketch, "shootout-sketch", 100, "random-projection l for the shoot-out's randproj variants")
	fs.IntVar(&p.fdEll, "fd-ell", 0, "per-monitor Frequent Directions basis budget ℓ for the shoot-out (0 = 2·⌈√w⌉ per monitor)")
	fs.IntVar(&p.monitors, "monitors", 9, "monitors partitioning the flows in the shoot-out")
	fs.StringVar(&p.trace, "trace", "", "replay a trafficgen-format CSV instead of the synthetic workload ("+traceModes+")")
	fs.IntVar(&p.traceWindow, "trace-window", 0, "sliding-window length when -trace is set")
	distName := fs.String("dist", "gaussian", "projection family: gaussian, tugofwar, sparse or verysparse")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dist, err := parseDist(*distName)
	if err != nil {
		return err
	}
	p.dist = dist
	if p.figure == "" && !p.bounds && !p.oracle && !p.comm && !p.shootout && !p.identify {
		return fmt.Errorf("nothing to do: pass -figure N, -bounds, -oracle, -comm, -shootout and/or -identify")
	}
	figures := []string{p.figure}
	if p.figure == "all" {
		figures = []string{"5", "7", "8", "9", "10"}
	}
	if p.trace != "" {
		if p.traceWindow < 2 {
			return fmt.Errorf("-trace requires -trace-window >= 2")
		}
		// The other modes build their own labeled or fixed-shape trace; running
		// them on the synthetic one while -trace names a file would pass for a
		// replay that never happened.
		own := p.bounds || p.oracle || p.identify
		for _, f := range figures {
			own = own || f == "5" || f == "10"
		}
		if own {
			return fmt.Errorf("-trace is replayed by %s only; drop it or the other modes", traceModes)
		}
	}

	sess := &session{params: p, workloads: map[bool]*workload{}}
	for _, f := range figures {
		var err error
		switch f {
		case "":
		case "5":
			err = sess.figure5(out)
		case "7":
			err = sess.errorSurface(out, false)
		case "8":
			err = sess.errorSurface(out, true)
		case "9":
			err = sess.figure9(out)
		case "10":
			err = sess.figure10(out)
		default:
			return fmt.Errorf("unknown figure %q", f)
		}
		if err != nil {
			return fmt.Errorf("figure %s: %w", f, err)
		}
	}
	for _, mode := range []struct {
		on   bool
		name string
		run  func(io.Writer) error
	}{
		{p.bounds, "bounds", sess.boundsReport},
		{p.oracle, "oracle", sess.oracleReport},
		{p.comm, "comm", sess.commReport},
		{p.shootout, "shootout", sess.shootoutReport},
		{p.identify, "identify", sess.identifyReport},
	} {
		if !mode.on {
			continue
		}
		if err := mode.run(out); err != nil {
			return fmt.Errorf("%s: %w", mode.name, err)
		}
	}
	return nil
}

// traceModes names the modes that replay -trace.
const traceModes = "-figure 7, 8, 9, -comm and -shootout"

// session is one invocation: the flags, and per resolution the workload the
// modes share.
type session struct {
	params
	workloads map[bool]*workload // by oneMinute
}

// workload is the evaluation scenario at one resolution, with the exact
// method's labels fitted at most once per process however many modes score
// against them.
type workload struct {
	eval.Scenario
	truth *eval.Truth
}

// scenario fills the one evaluation set-up from the flags; modes override the
// field they sweep.
func (p params) scenario(tr *traffic.Trace, window int) eval.Scenario {
	return eval.Scenario{
		Trace: tr, WindowLen: window, Rank: 6, Alpha: p.alpha, Epsilon: p.epsilon,
		Seed: uint64(p.seed), SketchLen: p.shootSketch, FDEll: p.fdEll,
		Monitors: p.monitors, RefitEvery: p.refitEvery, Dist: p.dist,
	}
}

// workload returns the evaluation workload at one resolution: a replayed CSV
// (-trace) or the synthetic default.
func (s *session) workload(oneMinute bool) (*workload, error) {
	if w := s.workloads[oneMinute]; w != nil {
		return w, nil
	}
	perDay, window, total, _ := surfaceDims(s.params, oneMinute)
	tr, window, err := loadWorkload(s.params, perDay, window, total)
	if err != nil {
		return nil, err
	}
	w := &workload{Scenario: s.scenario(tr, window)}
	s.workloads[oneMinute] = w
	return w, nil
}

// labeled is workload plus the exact Lakhina method's labels at r* = 6 — the
// one place truth is fitted.
func (s *session) labeled(oneMinute bool) (*workload, *eval.Truth, error) {
	w, err := s.workload(oneMinute)
	if err != nil {
		return nil, nil, err
	}
	if w.truth == nil {
		if w.truth, err = eval.GroundTruth(w.Scenario); err != nil {
			return nil, nil, err
		}
	}
	return w, w.truth, nil
}

// loadWorkload returns the evaluation trace and window: either a replayed
// CSV (-trace) or the synthetic default.
func loadWorkload(p params, perDay, window, total int) (*traffic.Trace, int, error) {
	if p.trace == "" {
		tr, err := eval.BuildEvalTrace(p.seed, total, perDay, window)
		return tr, window, err
	}
	f, err := os.Open(p.trace)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	tr, err := traffic.ReadCSV(f)
	if err != nil {
		return nil, 0, fmt.Errorf("parse %s: %w", p.trace, err)
	}
	return tr, p.traceWindow, nil
}

// figure5 prints the coordinated-anomaly time series of four OD flows.
func (s *session) figure5(out io.Writer) error {
	n := 4 * traffic.IntervalsPerDay5Min
	if s.full {
		n = 30 * traffic.IntervalsPerDay5Min
	}
	tr, start, end, err := eval.BuildFig5Trace(s.seed, n)
	if err != nil {
		return err
	}
	lo, hi := start-50, end+50
	if lo < 0 {
		lo = 0
	}
	if hi > tr.NumIntervals() {
		hi = tr.NumIntervals()
	}
	series, err := eval.ExtractSeries(tr, eval.Fig5Flows, lo, hi)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# Figure 5 — coordinated low-profile anomaly, intervals [%d,%d) anomalous\n", start, end)
	fmt.Fprintf(out, "interval,%s\n", strings.Join(eval.Fig5Flows, ","))
	for i := lo; i < hi; i++ {
		row := make([]string, 0, 1+len(series))
		row = append(row, strconv.Itoa(i))
		for _, sr := range series {
			row = append(row, strconv.FormatFloat(sr.Values[i-lo], 'f', 0, 64))
		}
		fmt.Fprintln(out, strings.Join(row, ","))
	}
	return nil
}

// surfaceDims returns workload dimensions for the error surfaces.
func surfaceDims(p params, oneMinute bool) (perDay, window, total int, sketchLens []int) {
	if oneMinute {
		perDay = traffic.IntervalsPerDay1Min
	} else {
		perDay = traffic.IntervalsPerDay5Min
	}
	if p.full {
		window = 14 * perDay // two weeks, as in the paper
		total = 30 * perDay  // one month
		for l := 10; l <= 400; l += 10 {
			sketchLens = append(sketchLens, l)
		}
		return perDay, window, total, sketchLens
	}
	// Scaled: two "days" of window, six of trace, sparse l grid.
	window = 2 * perDay / 4
	total = 6 * perDay / 4
	sketchLens = []int{10, 25, 50, 100, 200, 400}
	return perDay, window, total, sketchLens
}

// errorSurface regenerates Fig. 7 (5-minute) or Fig. 8 (1-minute).
func (s *session) errorSurface(out io.Writer, oneMinute bool) error {
	_, _, _, sketchLens := surfaceDims(s.params, oneMinute)
	figure, label := "7", "5-minute"
	if oneMinute {
		figure, label = "8", "1-minute"
	}
	w, truth, err := s.labeled(oneMinute)
	if err != nil {
		return err
	}
	points, err := eval.SweepErrors(w.Scenario, truth, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, sketchLens)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# Figure %s — Type I and Type II errors vs (r, l), %s intervals\n", figure, label)
	fmt.Fprintf(out, "# window n=%d, trace %d intervals, epsilon=%v, alpha=%v, truth rank r*=6, %d true anomalies, %d true normals\n",
		w.WindowLen, w.Trace.NumIntervals(), s.epsilon, s.alpha, truth.NumAnomalous, truth.NumNormal)
	fmt.Fprintln(out, "r,l,typeI,typeII")
	for _, pt := range points {
		fmt.Fprintf(out, "%d,%d,%.4f,%.4f\n", pt.Rank, pt.SketchLen, pt.TypeI(), pt.TypeII())
	}
	return nil
}

// figure9 fixes r = 6 and sweeps l for both interval resolutions.
func (s *session) figure9(out io.Writer) error {
	fmt.Fprintln(out, "# Figure 9 — Type I and Type II errors vs sketch length l at r = 6")
	fmt.Fprintln(out, "resolution,l,typeI,typeII")
	sketchLens := []int{10, 20, 50, 100, 200, 400, 700, 1000}
	if s.full {
		sketchLens = nil
		for l := 10; l <= 1000; l += 10 {
			sketchLens = append(sketchLens, l)
		}
	}
	for _, oneMinute := range []bool{false, true} {
		w, truth, err := s.labeled(oneMinute)
		if err != nil {
			return err
		}
		points, err := eval.SweepErrors(w.Scenario, truth, []int{6}, sketchLens)
		if err != nil {
			return err
		}
		label := "5min"
		if oneMinute {
			label = "1min"
		}
		for _, pt := range points {
			fmt.Fprintf(out, "%s,%d,%.4f,%.4f\n", label, pt.SketchLen, pt.TypeI(), pt.TypeII())
		}
	}
	return nil
}

// figure10 prints the NOC computation-overhead comparison in the paper's
// m²·n vs m²·l operation counts plus measured rebuild times.
func (s *session) figure10(out io.Writer) error {
	m := 81
	sketchLens := []int{10, 50, 100, 200, 400, 700, 1000}
	if s.full {
		sketchLens = nil
		for l := 10; l <= 1000; l += 10 {
			sketchLens = append(sketchLens, l)
		}
	}
	fmt.Fprintln(out, "# Figure 10 — NOC computation overhead (log scale in the paper)")
	fmt.Fprintln(out, "l,lakhina_ops_1min,lakhina_ops_5min,sketch_ops,lakhina_ns_5min,sketch_ns")
	n5 := 14 * traffic.IntervalsPerDay5Min
	n1 := 14 * traffic.IntervalsPerDay1Min
	pts5, err := eval.Overhead(m, n5, sketchLens, true)
	if err != nil {
		return err
	}
	pts1, err := eval.Overhead(m, n1, sketchLens, false)
	if err != nil {
		return err
	}
	for i, pt := range pts5 {
		fmt.Fprintf(out, "%d,%.0f,%.0f,%.0f,%d,%d\n",
			pt.SketchLen, pts1[i].LakhinaOps, pt.LakhinaOps, pt.SketchOps, pt.LakhinaNs, pt.SketchNs)
	}
	return nil
}

// commReport replays the scaled workload through the in-process cluster and
// prints the communication-cost breakdown of the lazy protocol.
func (s *session) commReport(out io.Writer) error {
	w, err := s.workload(false)
	if err != nil {
		return err
	}
	sc := w.Scenario
	sc.Monitors, sc.SketchLen = 9, 200
	cl, err := sc.Replay(sketch.FamilyRandProj, func(*core.Cluster, eval.Step) error { return nil })
	if err != nil {
		return err
	}
	obs, fetches, alarms := cl.Detector().Stats()
	model := eval.CommModel{NumFlows: sc.Trace.NumFlows(), NumMonitors: sc.Monitors, SketchLen: sc.SketchLen}
	cost, err := model.Bytes(obs, fetches)
	if err != nil {
		return err
	}
	lazy := cost.LazyBytes
	if lazy < 1 {
		lazy = 1
	}
	fmt.Fprintln(out, "# Communication cost — lazy sketch pulls vs eager per-interval pushes")
	fmt.Fprintf(out, "observations,%d\nfetches,%d\nalarms,%d\n", obs, fetches, alarms)
	fmt.Fprintf(out, "volume_bytes,%d\nlazy_sketch_bytes,%d\neager_sketch_bytes,%d\nsavings_factor,%.1f\n",
		cost.VolumeBytes, cost.LazyBytes, cost.EagerBytes, float64(cost.EagerBytes)/float64(lazy))
	return nil
}

// oracleReport prints one bound-violation row per projection family: the
// full streaming pipeline is driven over the evaluation workload and
// differentially validated (exactness, Lemma 1, Lemmas 5–6, Theorem 2,
// alarm agreement) on sampled intervals. Any nonzero violation count is a
// numerical-correctness bug, not a statistical miss.
func (s *session) oracleReport(out io.Writer) error {
	w, err := s.workload(false)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# Oracle — differential validation of the streaming pipeline vs exact references")
	fmt.Fprintln(out, "dist,l,checks,violations,max_rel_err,worst")
	for _, l := range []int{16, 64} {
		sc := w.Scenario
		sc.SketchLen = l
		rows, err := eval.OracleSweep(sc)
		if err != nil {
			return err
		}
		for _, r := range rows {
			worst := ""
			if v := r.Worst(); v != nil {
				worst = v.String()
			}
			fmt.Fprintf(out, "%v,%d,%d,%d,%.3e,%s\n",
				r.Dist, r.SketchLen, r.Checks, len(r.Violations), r.MaxRelErr, worst)
		}
	}
	return nil
}

// shootoutReport runs the sketcher families over the same
// trace and ground truth and prints one scorecard row each: detection
// accuracy, the size of one sketch pull, the measured retrain bill, and the
// per-family oracle outcome (exact-batch model checks for randproj, the
// deterministic ‖AᵀA−BᵀB‖₂ ≤ Δ ≤ ‖A‖²_F/ℓ replay for fd).
func (s *session) shootoutReport(out io.Writer) error {
	w, truth, err := s.labeled(false)
	if err != nil {
		return err
	}
	rows, err := eval.Shootout(w.Scenario, truth)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# Shoot-out — sketcher families on one trace, same ground truth")
	fmt.Fprintf(out, "# window n=%d, trace %d intervals, m=%d flows, %d monitors, %d true anomalies, %d true normals\n",
		w.WindowLen, w.Trace.NumIntervals(), w.Trace.NumFlows(), s.monitors, truth.NumAnomalous, truth.NumNormal)
	fmt.Fprintln(out, "variant,sketch_param,typeI,typeII,false_alarms,misses,threshold_unavail,retrains,retrain_ms,pull_bytes,oracle_checks,oracle_violations,oracle_max_rel_err")
	for _, r := range rows {
		fmt.Fprintf(out, "%s,%d,%.4f,%.4f,%d,%d,%d,%d,%.1f,%d,%d,%d,%.3e\n",
			r.Variant, r.SketchParam, r.TypeI(), r.TypeII(), r.FalseAlarms, r.Misses,
			r.ThresholdUnavail, r.Retrains, float64(r.RetrainNanos)/1e6,
			r.SketchBytes, r.Oracle.Checks, len(r.Oracle.Violations), r.Oracle.MaxRelErr)
		if v := r.Oracle.Worst(); v != nil {
			fmt.Fprintf(out, "# %s worst violation: %s\n", r.Variant, v)
		}
	}
	return nil
}

// identifyReport scores per-flow anomaly identification on the labeled
// attack suite at Abilene scale: the online greedy pursuit once per
// CI-gated sketcher family, plus the offline relaxed-PCP comparator. The
// -identify-min-p3 / -identify-min-recall gates turn the scorecard into a
// CI check: any online family below a floor fails the run.
func (s *session) identifyReport(out io.Writer) error {
	perDay, window, total, _ := surfaceDims(s.params, false)
	tr, err := eval.BuildIdentifyTrace(s.seed, total, perDay, window, nil)
	if err != nil {
		return err
	}
	rows, err := eval.IdentifySuite(s.scenario(tr, window), s.idFDMonitors)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# Identification — per-flow anomography on the labeled attack suite")
	fmt.Fprintf(out, "# window n=%d, trace %d intervals, m=%d flows, %d injected scenarios\n",
		window, tr.NumIntervals(), tr.NumFlows(), len(tr.Injections))
	fmt.Fprintln(out, "variant,sketch_param,scored,missed,false_alarms,precision@1,precision@3,recall,mean_explained,mean_culprits")
	var gateErrs []string
	for _, r := range rows {
		fmt.Fprintf(out, "%s,%d,%d,%d,%d,%.4f,%.4f,%.4f,%.4f,%.1f\n",
			r.Variant, r.SketchParam, r.Scored, r.Missed, r.FalseAlarms,
			r.Precision1, r.Precision3, r.Recall, r.MeanExplained, r.MeanCulprits)
		for _, ks := range r.Kinds {
			fmt.Fprintf(out, "#   %s/%s: scored=%d missed=%d precision@3=%.3f recall=%.3f\n",
				r.Variant, ks.Kind, ks.Scored, ks.Missed, ks.Precision3, ks.Recall)
		}
		if r.Variant == "pcp-offline" {
			continue // the comparator is context, not a gated family
		}
		if s.idMinP3 > 0 && r.Precision3 < s.idMinP3 {
			gateErrs = append(gateErrs, fmt.Sprintf("%s precision@3 %.4f < %.4f", r.Variant, r.Precision3, s.idMinP3))
		}
		if s.idMinRecall > 0 && r.Recall < s.idMinRecall {
			gateErrs = append(gateErrs, fmt.Sprintf("%s recall %.4f < %.4f", r.Variant, r.Recall, s.idMinRecall))
		}
	}
	if len(gateErrs) > 0 {
		return fmt.Errorf("identification gate failed: %s", strings.Join(gateErrs, "; "))
	}
	return nil
}

// boundsReport prints the empirical Lemma 5/6 and Theorem 2 checks.
func (s *session) boundsReport(out io.Writer) error {
	w, err := s.workload(false)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# Error bounds — empirical Lemma 5 (singular ratios), Lemma 6 (covariance), Theorem 2 (distance)")
	fmt.Fprintln(out, "l,min_sv_ratio,max_sv_ratio,cov_rel_err,mean_dist_rel_err,max_dist_rel_err,spectral_gap")
	for _, l := range []int{8, 32, 128, 512} {
		sc := w.Scenario
		sc.SketchLen = l
		rep, err := eval.CheckBounds(sc)
		if err != nil {
			return err
		}
		lo, hi := rep.SingularRatios[0], rep.SingularRatios[0]
		for _, r := range rep.SingularRatios {
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
		fmt.Fprintf(out, "%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.3e\n",
			l, lo, hi, rep.CovRelError, rep.MeanDistRelError, rep.MaxDistRelError, rep.SpectralGap)
	}
	return nil
}
