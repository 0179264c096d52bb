package traffic

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"streampca/internal/mat"
)

// Errors returned by the generator.
var (
	// ErrGenConfig indicates an invalid generator configuration.
	ErrGenConfig = errors.New("traffic: invalid generator configuration")
	// ErrInject indicates an invalid anomaly injection request.
	ErrInject = errors.New("traffic: invalid anomaly injection")
)

// AnomalyKind classifies injected anomalies.
type AnomalyKind int

const (
	// Spike is a high-profile volume surge on a single OD flow (DDoS,
	// large transfer).
	Spike AnomalyKind = iota + 1
	// Coordinated is a low-profile, simultaneous shift across several OD
	// flows (botnet-style), the paper's headline target.
	Coordinated
	// FlashCrowd is a gradual ramp of traffic toward one destination
	// router across all its incoming OD flows.
	FlashCrowd
)

// String implements fmt.Stringer.
func (k AnomalyKind) String() string {
	switch k {
	case Spike:
		return "spike"
	case Coordinated:
		return "coordinated"
	case FlashCrowd:
		return "flash-crowd"
	default:
		if s, ok := attackKindString(k); ok {
			return s
		}
		return "unknown"
	}
}

// Injection records one injected anomaly for ground-truth labeling.
type Injection struct {
	Kind AnomalyKind
	// Start and End delimit the affected interval indices [Start, End).
	Start, End int
	// Flows lists the affected OD-flow indices.
	Flows []int
	// Magnitude is the added volume per affected flow per interval, as a
	// fraction of that flow's baseline mean.
	Magnitude float64
}

// Trace is a generated OD-flow volume matrix with ground-truth labels.
type Trace struct {
	// Volumes is the n×m matrix of per-interval OD-flow byte volumes, whole
	// bytes when generated.
	Volumes *mat.Matrix
	// FlowNames[j] names OD flow j ("ATLA→CHIC").
	FlowNames []string
	// RouterNames lists the routers.
	RouterNames []string
	// IntervalsPerDay records the time resolution.
	IntervalsPerDay int
	// StartInterval is the global index of row 0 (rows are consecutive).
	StartInterval int64
	// Injections are the anomalies added on top of the baseline.
	Injections []Injection
	// baseMeans[j] is flow j's baseline mean volume, used to scale
	// injections added after generation.
	baseMeans []float64
	// labelOverride, when non-nil (traces loaded from CSV), provides the
	// ground-truth labels directly; injections still extend it.
	labelOverride []bool
}

// GeneratorConfig parameterizes Generate.
type GeneratorConfig struct {
	// Routers names the routers; defaults to AbileneRouters when nil.
	Routers []string
	// RouterWeights gives the gravity-model mass per router; defaults to
	// the Abilene weights (or all-ones for custom router sets).
	RouterWeights []float64
	// NumIntervals is n, the number of rows to generate. Required.
	NumIntervals int
	// IntervalsPerDay sets the diurnal period; defaults to 288 (5-minute
	// intervals).
	IntervalsPerDay int
	// Seed drives all randomness; the same config generates the same trace.
	Seed int64
	// Factors is the number of shared latent factors; defaults to 6.
	Factors int
	// NoiseLevel is the relative amplitude of the LRD factor noise;
	// defaults to 0.12.
	NoiseLevel float64
	// LocalNoiseLevel is the relative amplitude of per-flow idiosyncratic
	// noise; defaults to 0.03.
	LocalNoiseLevel float64
	// TotalVolume scales the network-wide mean bytes per interval;
	// defaults to 1e8 (order of the Abilene per-interval volumes in
	// Fig. 5).
	TotalVolume float64
}

func (cfg *GeneratorConfig) applyDefaults() error {
	if cfg.NumIntervals <= 0 {
		return fmt.Errorf("%w: %d intervals", ErrGenConfig, cfg.NumIntervals)
	}
	if cfg.Routers == nil {
		cfg.Routers = AbileneRouters
		if cfg.RouterWeights == nil {
			cfg.RouterWeights = abileneWeights
		}
	}
	if len(cfg.Routers) < 2 {
		return fmt.Errorf("%w: %d routers", ErrGenConfig, len(cfg.Routers))
	}
	if cfg.RouterWeights == nil {
		cfg.RouterWeights = make([]float64, len(cfg.Routers))
		for i := range cfg.RouterWeights {
			cfg.RouterWeights[i] = 1
		}
	}
	if len(cfg.RouterWeights) != len(cfg.Routers) {
		return fmt.Errorf("%w: %d weights for %d routers", ErrGenConfig,
			len(cfg.RouterWeights), len(cfg.Routers))
	}
	if cfg.IntervalsPerDay <= 0 {
		cfg.IntervalsPerDay = IntervalsPerDay5Min
	}
	if cfg.Factors <= 0 {
		cfg.Factors = 6
	}
	if cfg.NoiseLevel == 0 {
		cfg.NoiseLevel = 0.12
	}
	if cfg.NoiseLevel < 0 || cfg.LocalNoiseLevel < 0 {
		return fmt.Errorf("%w: negative noise level", ErrGenConfig)
	}
	if cfg.LocalNoiseLevel == 0 {
		cfg.LocalNoiseLevel = 0.03
	}
	if cfg.TotalVolume == 0 {
		cfg.TotalVolume = 1e8
	}
	if cfg.TotalVolume < 0 {
		return fmt.Errorf("%w: negative total volume", ErrGenConfig)
	}
	return nil
}

// Generate produces a synthetic OD-flow trace per the latent-factor model
// described in the package comment. The result is deterministic in cfg.
func Generate(cfg GeneratorConfig) (*Trace, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	nR := len(cfg.Routers)
	m := nR * nR
	n := cfg.NumIntervals
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Gravity-model base rates: rate(o→d) ∝ w_o·w_d.
	baseMeans := make([]float64, m)
	var wSum float64
	for _, w := range cfg.RouterWeights {
		wSum += w
	}
	for o := 0; o < nR; o++ {
		for d := 0; d < nR; d++ {
			share := cfg.RouterWeights[o] * cfg.RouterWeights[d] / (wSum * wSum)
			baseMeans[o*nR+d] = cfg.TotalVolume * share
		}
	}

	// Factor loadings: every flow loads on factor 0 (network-wide diurnal
	// mass) plus a sparse random mix of the remaining factors, keeping the
	// matrix approximately low-rank like real backbone traffic.
	loadings := make([][]float64, m)
	for j := 0; j < m; j++ {
		row := make([]float64, cfg.Factors)
		row[0] = 1
		for f := 1; f < cfg.Factors; f++ {
			if rng.Float64() < 0.4 {
				row[f] = 0.3 + 0.7*rng.Float64()
			}
		}
		// Normalize so factor mixing does not change the mean scale.
		var s float64
		for _, v := range row {
			s += v
		}
		for f := range row {
			row[f] /= s
		}
		loadings[j] = row
	}

	// Factor time series: diurnal + weekly modulation + LRD noise,
	// strictly positive (clipped at a floor).
	factorSeries := make([][]float64, cfg.Factors)
	for f := 0; f < cfg.Factors; f++ {
		noise, err := NewMultiScaleNoise(5, rng)
		if err != nil {
			return nil, err
		}
		phase := rng.Float64() * 2 * math.Pi
		diurnalAmp := 0.25 + 0.2*rng.Float64()
		weeklyAmp := 0.05 + 0.05*rng.Float64()
		series := make([]float64, n)
		day := float64(cfg.IntervalsPerDay)
		for i := 0; i < n; i++ {
			tDay := 2 * math.Pi * float64(i) / day
			tWeek := tDay / 7
			v := 1 +
				diurnalAmp*math.Sin(tDay+phase) +
				weeklyAmp*math.Sin(tWeek+phase/2) +
				cfg.NoiseLevel*noise.Step()
			if v < 0.05 {
				v = 0.05
			}
			series[i] = v
		}
		factorSeries[f] = series
	}

	// Assemble volumes.
	vol := mat.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		row := vol.RowView(i)
		for j := 0; j < m; j++ {
			var fmix float64
			for f, l := range loadings[j] {
				if l != 0 {
					fmix += l * factorSeries[f][i]
				}
			}
			row[j] = max(0, math.Round(baseMeans[j]*fmix*(1+cfg.LocalNoiseLevel*rng.NormFloat64())))
		}
	}

	flowNames := make([]string, m)
	for o := 0; o < nR; o++ {
		for d := 0; d < nR; d++ {
			flowNames[o*nR+d] = cfg.Routers[o] + "→" + cfg.Routers[d]
		}
	}
	routers := make([]string, nR)
	copy(routers, cfg.Routers)

	return &Trace{
		Volumes:         vol,
		FlowNames:       flowNames,
		RouterNames:     routers,
		IntervalsPerDay: cfg.IntervalsPerDay,
		StartInterval:   1,
		baseMeans:       baseMeans,
	}, nil
}

// NumIntervals returns n, the number of rows.
func (tr *Trace) NumIntervals() int { return tr.Volumes.Rows() }

// NumFlows returns m, the number of OD flows.
func (tr *Trace) NumFlows() int { return tr.Volumes.Cols() }

// FlowIndex returns the index of the named OD flow ("ATLA→CHIC").
func (tr *Trace) FlowIndex(name string) (int, error) {
	for j, fn := range tr.FlowNames {
		if fn == name {
			return j, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown flow %q", ErrInject, name)
}

func (tr *Trace) checkInjection(start, end int, flows []int) error {
	if start < 0 || end > tr.NumIntervals() || start >= end {
		return fmt.Errorf("%w: interval range [%d,%d) of %d", ErrInject, start, end, tr.NumIntervals())
	}
	if len(flows) == 0 {
		return fmt.Errorf("%w: no flows", ErrInject)
	}
	for _, f := range flows {
		if f < 0 || f >= tr.NumFlows() {
			return fmt.Errorf("%w: flow %d of %d", ErrInject, f, tr.NumFlows())
		}
	}
	return nil
}

// InjectSpike adds a high-profile anomaly: magnitude×baseline extra volume
// on one flow for intervals [start, end).
func (tr *Trace) InjectSpike(flowID, start, end int, magnitude float64) error {
	return tr.inject(Spike, []int{flowID}, start, end, magnitude)
}

// InjectCoordinated adds a low-profile coordinated anomaly: each listed flow
// gains magnitude×its-baseline extra volume simultaneously over [start, end).
func (tr *Trace) InjectCoordinated(flows []int, start, end int, magnitude float64) error {
	return tr.inject(Coordinated, flows, start, end, magnitude)
}

func (tr *Trace) inject(kind AnomalyKind, flows []int, start, end int, magnitude float64) error {
	if err := tr.checkInjection(start, end, flows); err != nil {
		return err
	}
	if magnitude <= 0 || math.IsNaN(magnitude) || math.IsInf(magnitude, 0) {
		return fmt.Errorf("%w: magnitude %v", ErrInject, magnitude)
	}
	for i := start; i < end; i++ {
		row := tr.Volumes.RowView(i)
		for _, f := range flows {
			row[f] += math.Round(magnitude * tr.baseMeans[f])
		}
	}
	tr.Injections = append(tr.Injections, Injection{
		Kind: kind, Start: start, End: end,
		Flows: append([]int(nil), flows...), Magnitude: magnitude,
	})
	return nil
}

// InjectFlashCrowd ramps traffic toward destination router destIdx linearly
// from zero to peakMagnitude×baseline across [start, end) on every OD flow
// into that destination.
func (tr *Trace) InjectFlashCrowd(destIdx, start, end int, peakMagnitude float64) error {
	nR := len(tr.RouterNames)
	if destIdx < 0 || destIdx >= nR {
		return fmt.Errorf("%w: destination router %d of %d", ErrInject, destIdx, nR)
	}
	if peakMagnitude <= 0 || math.IsNaN(peakMagnitude) || math.IsInf(peakMagnitude, 0) {
		return fmt.Errorf("%w: magnitude %v", ErrInject, peakMagnitude)
	}
	flows := make([]int, 0, nR-1)
	for o := 0; o < nR; o++ {
		if o == destIdx {
			continue
		}
		flows = append(flows, o*nR+destIdx)
	}
	if err := tr.checkInjection(start, end, flows); err != nil {
		return err
	}
	span := float64(end - start)
	for i := start; i < end; i++ {
		ramp := float64(i-start+1) / span
		row := tr.Volumes.RowView(i)
		for _, f := range flows {
			row[f] += math.Round(peakMagnitude * ramp * tr.baseMeans[f])
		}
	}
	tr.Injections = append(tr.Injections, Injection{
		Kind: FlashCrowd, Start: start, End: end, Flows: flows, Magnitude: peakMagnitude,
	})
	return nil
}

// Labels returns the ground-truth anomaly mask: Labels()[i] is true when
// interval i lies inside any injection (or was labeled in a loaded trace).
func (tr *Trace) Labels() []bool {
	out := make([]bool, tr.NumIntervals())
	copy(out, tr.labelOverride)
	for _, inj := range tr.Injections {
		for i := inj.Start; i < inj.End && i < len(out); i++ {
			out[i] = true
		}
	}
	return out
}

// BaselineMean returns flow j's baseline mean volume.
func (tr *Trace) BaselineMean(j int) (float64, error) {
	if j < 0 || j >= len(tr.baseMeans) {
		return 0, fmt.Errorf("%w: flow %d of %d", ErrInject, j, len(tr.baseMeans))
	}
	return tr.baseMeans[j], nil
}
