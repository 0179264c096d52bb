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
// The default runs use a documented scaled-down grid so the whole suite
// completes in minutes; -full switches to the paper's dimensions.
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
	fs.StringVar(&p.trace, "trace", "", "replay a trafficgen-format CSV instead of the synthetic workload (figures 7–9)")
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
	if p.trace != "" && p.traceWindow < 2 {
		return fmt.Errorf("-trace requires -trace-window >= 2")
	}

	figures := []string{p.figure}
	if p.figure == "all" {
		figures = []string{"5", "7", "8", "9", "10"}
	}
	for _, f := range figures {
		switch f {
		case "":
		case "5":
			if err := figure5(p, out); err != nil {
				return fmt.Errorf("figure 5: %w", err)
			}
		case "7":
			if err := errorSurface(p, out, false); err != nil {
				return fmt.Errorf("figure 7: %w", err)
			}
		case "8":
			if err := errorSurface(p, out, true); err != nil {
				return fmt.Errorf("figure 8: %w", err)
			}
		case "9":
			if err := figure9(p, out); err != nil {
				return fmt.Errorf("figure 9: %w", err)
			}
		case "10":
			if err := figure10(p, out); err != nil {
				return fmt.Errorf("figure 10: %w", err)
			}
		default:
			return fmt.Errorf("unknown figure %q", f)
		}
	}
	if p.bounds {
		if err := boundsReport(p, out); err != nil {
			return fmt.Errorf("bounds: %w", err)
		}
	}
	if p.oracle {
		if err := oracleReport(p, out); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
	}
	if p.comm {
		if err := commReport(p, out); err != nil {
			return fmt.Errorf("comm: %w", err)
		}
	}
	if p.shootout {
		if err := shootoutReport(p, out); err != nil {
			return fmt.Errorf("shootout: %w", err)
		}
	}
	if p.identify {
		if err := identifyReport(p, out); err != nil {
			return fmt.Errorf("identify: %w", err)
		}
	}
	return nil
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
func figure5(p params, out io.Writer) error {
	n := 4 * traffic.IntervalsPerDay5Min
	if p.full {
		n = 30 * traffic.IntervalsPerDay5Min
	}
	tr, start, end, err := eval.BuildFig5Trace(p.seed, n)
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
		for _, s := range series {
			row = append(row, strconv.FormatFloat(s.Values[i-lo], 'f', 0, 64))
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
func errorSurface(p params, out io.Writer, oneMinute bool) error {
	perDay, window, total, sketchLens := surfaceDims(p, oneMinute)
	figure := "7"
	label := "5-minute"
	if oneMinute {
		figure, label = "8", "1-minute"
	}
	tr, window, err := loadWorkload(p, perDay, window, total)
	if err != nil {
		return err
	}
	total = tr.NumIntervals()
	truth, err := eval.GroundTruth(tr.Volumes, eval.TruthConfig{
		WindowLen: window, Rank: 6, Alpha: p.alpha, RefitEvery: p.refitEvery,
	})
	if err != nil {
		return err
	}
	ranks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	points, err := eval.SweepErrors(tr.Volumes, truth, eval.SweepConfig{
		WindowLen: window, Epsilon: p.epsilon, Alpha: p.alpha, Seed: uint64(p.seed),
		Ranks: ranks, SketchLens: sketchLens, RefitEvery: p.refitEvery,
		Dist: p.dist,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# Figure %s — Type I and Type II errors vs (r, l), %s intervals\n", figure, label)
	fmt.Fprintf(out, "# window n=%d, trace %d intervals, epsilon=%v, alpha=%v, truth rank r*=6, %d true anomalies, %d true normals\n",
		window, total, p.epsilon, p.alpha, truth.NumAnomalous, truth.NumNormal)
	fmt.Fprintln(out, "r,l,typeI,typeII")
	for _, pt := range points {
		fmt.Fprintf(out, "%d,%d,%.4f,%.4f\n", pt.Rank, pt.SketchLen, pt.TypeI, pt.TypeII)
	}
	return nil
}

// figure9 fixes r = 6 and sweeps l for both interval resolutions.
func figure9(p params, out io.Writer) error {
	fmt.Fprintln(out, "# Figure 9 — Type I and Type II errors vs sketch length l at r = 6")
	fmt.Fprintln(out, "resolution,l,typeI,typeII")
	for _, oneMinute := range []bool{false, true} {
		perDay, window, total, _ := surfaceDims(p, oneMinute)
		sketchLens := []int{10, 20, 50, 100, 200, 400, 700, 1000}
		if p.full {
			sketchLens = nil
			for l := 10; l <= 1000; l += 10 {
				sketchLens = append(sketchLens, l)
			}
		}
		tr, window, err := loadWorkload(p, perDay, window, total)
		if err != nil {
			return err
		}
		truth, err := eval.GroundTruth(tr.Volumes, eval.TruthConfig{
			WindowLen: window, Rank: 6, Alpha: p.alpha, RefitEvery: p.refitEvery,
		})
		if err != nil {
			return err
		}
		points, err := eval.SweepErrors(tr.Volumes, truth, eval.SweepConfig{
			WindowLen: window, Epsilon: p.epsilon, Alpha: p.alpha, Seed: uint64(p.seed),
			Ranks: []int{6}, SketchLens: sketchLens, RefitEvery: p.refitEvery,
			Dist: p.dist,
		})
		if err != nil {
			return err
		}
		label := "5min"
		if oneMinute {
			label = "1min"
		}
		for _, pt := range points {
			fmt.Fprintf(out, "%s,%d,%.4f,%.4f\n", label, pt.SketchLen, pt.TypeI, pt.TypeII)
		}
	}
	return nil
}

// figure10 prints the NOC computation-overhead comparison in the paper's
// m²·n vs m²·l operation counts plus measured rebuild times.
func figure10(p params, out io.Writer) error {
	m := 81
	sketchLens := []int{10, 50, 100, 200, 400, 700, 1000}
	if p.full {
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

// commReport runs the in-process cluster over the scaled workload and
// prints the communication-cost breakdown of the lazy protocol.
func commReport(p params, out io.Writer) error {
	perDay, window, total, _ := surfaceDims(p, false)
	tr, window, err := loadWorkload(p, perDay, window, total)
	if err != nil {
		return err
	}
	const monitors = 9
	const sketchLen = 200
	cl, err := core.NewCluster(core.ClusterConfig{
		NumFlows:    tr.NumFlows(),
		NumMonitors: monitors,
		WindowLen:   window,
		Epsilon:     p.epsilon,
		Alpha:       p.alpha,
		Sketch:      randproj.Config{Seed: uint64(p.seed), SketchLen: sketchLen},
		Mode:        core.RankFixed,
		FixedRank:   6,
	})
	if err != nil {
		return err
	}
	for i := 0; i < tr.NumIntervals(); i++ {
		if _, err := cl.Step(int64(i+1), tr.Volumes.RowView(i)); err != nil {
			return err
		}
	}
	obs, fetches, alarms := cl.Detector().Stats()
	model := eval.CommModel{NumFlows: tr.NumFlows(), NumMonitors: monitors, SketchLen: sketchLen}
	cost, err := model.Bytes(obs, fetches)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# Communication cost — lazy sketch pulls vs eager per-interval pushes")
	fmt.Fprintf(out, "observations,%d\nfetches,%d\nalarms,%d\n", obs, fetches, alarms)
	fmt.Fprintf(out, "volume_bytes,%d\nlazy_sketch_bytes,%d\neager_sketch_bytes,%d\nsavings_factor,%.1f\n",
		cost.VolumeBytes, cost.LazyBytes, cost.EagerBytes,
		float64(cost.EagerBytes)/float64(maxInt64(cost.LazyBytes, 1)))
	return nil
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// oracleReport prints one bound-violation row per projection family: the
// full streaming pipeline is driven over the evaluation workload and
// differentially validated (exactness, Lemma 1, Lemmas 5–6, Theorem 2,
// alarm agreement) on sampled intervals. Any nonzero violation count is a
// numerical-correctness bug, not a statistical miss.
func oracleReport(p params, out io.Writer) error {
	perDay, window, total, _ := surfaceDims(p, false)
	tr, err := eval.BuildEvalTrace(p.seed, total, perDay, window)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# Oracle — differential validation of the streaming pipeline vs exact references")
	fmt.Fprintln(out, "dist,l,checks,violations,max_rel_err,worst")
	for _, l := range []int{16, 64} {
		rows, err := eval.OracleSweep(tr.Volumes, eval.OracleConfig{
			WindowLen: window, SketchLen: l, Rank: 6,
			Epsilon: p.epsilon, Alpha: p.alpha, Seed: uint64(p.seed),
		})
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintf(out, "%v,%d,%d,%d,%.3e,%s\n",
				r.Dist, r.SketchLen, r.Checks, r.Violations, r.MaxRelErr, r.Worst)
		}
	}
	return nil
}

// shootoutReport runs the sketcher families over the same
// trace and ground truth and prints one scorecard row each: detection
// accuracy, the size of one sketch pull, the measured retrain bill, and the
// per-family oracle outcome (exact-batch model checks for randproj, the
// deterministic ‖AᵀA−BᵀB‖₂ ≤ Δ ≤ ‖A‖²_F/ℓ replay for fd).
func shootoutReport(p params, out io.Writer) error {
	perDay, window, total, _ := surfaceDims(p, false)
	tr, window, err := loadWorkload(p, perDay, window, total)
	if err != nil {
		return err
	}
	truth, err := eval.GroundTruth(tr.Volumes, eval.TruthConfig{
		WindowLen: window, Rank: 6, Alpha: p.alpha, RefitEvery: p.refitEvery,
	})
	if err != nil {
		return err
	}
	rows, err := eval.Shootout(tr.Volumes, truth, eval.ShootoutConfig{
		WindowLen: window, Epsilon: p.epsilon, Alpha: p.alpha, Seed: uint64(p.seed),
		SketchLen: p.shootSketch, FDEll: p.fdEll, Rank: 6,
		NumMonitors: p.monitors, Oracle: true,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# Shoot-out — sketcher families on one trace, same ground truth")
	fmt.Fprintf(out, "# window n=%d, trace %d intervals, m=%d flows, %d monitors, %d true anomalies, %d true normals\n",
		window, tr.NumIntervals(), tr.NumFlows(), p.monitors, truth.NumAnomalous, truth.NumNormal)
	fmt.Fprintln(out, "variant,sketch_param,typeI,typeII,false_alarms,misses,threshold_unavail,retrains,retrain_ms,pull_bytes,oracle_checks,oracle_violations,oracle_max_rel_err")
	for _, r := range rows {
		fmt.Fprintf(out, "%s,%d,%.4f,%.4f,%d,%d,%d,%d,%.1f,%d,%d,%d,%.3e\n",
			r.Variant, r.SketchParam, r.TypeI, r.TypeII, r.FalseAlarms, r.Misses,
			r.ThresholdUnavail, r.Retrains, float64(r.RetrainNanos)/1e6,
			r.SketchBytes, r.OracleChecks, r.OracleViolations, r.OracleMaxRelErr)
		if r.OracleViolations > 0 {
			fmt.Fprintf(out, "# %s worst violation: %s\n", r.Variant, r.OracleWorst)
		}
	}
	return nil
}

// identifyReport scores per-flow anomaly identification on the labeled
// attack suite at Abilene scale: the online greedy pursuit once per
// CI-gated sketcher family, plus the offline relaxed-PCP comparator. The
// -identify-min-p3 / -identify-min-recall gates turn the scorecard into a
// CI check: any online family below a floor fails the run.
func identifyReport(p params, out io.Writer) error {
	perDay, window, total, _ := surfaceDims(p, false)
	tr, err := eval.BuildIdentifyTrace(p.seed, total, perDay, window, nil)
	if err != nil {
		return err
	}
	rows, err := eval.IdentifySuite(tr, eval.IdentifyConfig{
		WindowLen: window, Epsilon: p.epsilon, Alpha: p.alpha, Seed: uint64(p.seed),
		SketchLen: p.shootSketch, FDEll: p.fdEll, Rank: 6,
		NumMonitors: p.monitors, FDMonitors: p.idFDMonitors,
		PCP: true, PCPFrom: window,
	})
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
		if p.idMinP3 > 0 && r.Precision3 < p.idMinP3 {
			gateErrs = append(gateErrs, fmt.Sprintf("%s precision@3 %.4f < %.4f", r.Variant, r.Precision3, p.idMinP3))
		}
		if p.idMinRecall > 0 && r.Recall < p.idMinRecall {
			gateErrs = append(gateErrs, fmt.Sprintf("%s recall %.4f < %.4f", r.Variant, r.Recall, p.idMinRecall))
		}
	}
	if len(gateErrs) > 0 {
		return fmt.Errorf("identification gate failed: %s", strings.Join(gateErrs, "; "))
	}
	return nil
}

// boundsReport prints the empirical Lemma 5/6 and Theorem 2 checks.
func boundsReport(p params, out io.Writer) error {
	perDay, window, total, _ := surfaceDims(p, false)
	tr, err := eval.BuildEvalTrace(p.seed, total, perDay, window)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# Error bounds — empirical Lemma 5 (singular ratios), Lemma 6 (covariance), Theorem 2 (distance)")
	fmt.Fprintln(out, "l,min_sv_ratio,max_sv_ratio,cov_rel_err,mean_dist_rel_err,max_dist_rel_err,spectral_gap")
	for _, l := range []int{8, 32, 128, 512} {
		rep, err := eval.CheckBounds(tr.Volumes, window, l, 6, uint64(p.seed))
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
