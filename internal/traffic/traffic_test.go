package traffic

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRouterPrefixAndAddr(t *testing.T) {
	p, err := RouterPrefix(3)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "10.3.0.0/16" {
		t.Fatalf("prefix = %v", p)
	}
	a, err := RouterAddr(3, 0x0102)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != "10.3.1.2" {
		t.Fatalf("addr = %v", a)
	}
	if !p.Contains(a) {
		t.Fatal("router address must fall in router prefix")
	}
	if _, err := RouterPrefix(-1); err == nil {
		t.Fatal("negative router must fail")
	}
	if _, err := RouterAddr(300, 0); err == nil {
		t.Fatal("router 300 must fail")
	}
}

func TestBuildRoutingTable(t *testing.T) {
	tbl, err := BuildRoutingTable(9)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 9 {
		t.Fatalf("table size = %d", tbl.Len())
	}
	if _, err := BuildRoutingTable(0); err == nil {
		t.Fatal("zero routers must fail")
	}
}

func TestNewAbileneAggregator(t *testing.T) {
	agg, err := NewAbileneAggregator()
	if err != nil {
		t.Fatal(err)
	}
	if agg.NumFlows() != 81 {
		t.Fatalf("flows = %d, want 81", agg.NumFlows())
	}
	if got := agg.FlowName(0*9 + 1); got != "ATLA→CHIC" {
		t.Fatalf("flow name = %q", got)
	}
}

func TestMultiScaleNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, err := NewMultiScaleNoise(5, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := 20000
	data := make([]float64, n)
	for i := range data {
		data[i] = m.Step()
	}
	var mean, variance float64
	for _, v := range data {
		mean += v
	}
	mean /= float64(n)
	for _, v := range data {
		d := v - mean
		variance += d * d
	}
	variance /= float64(n)
	if variance < 0.3 || variance > 3 {
		t.Fatalf("variance = %v, want ≈1", variance)
	}
	// Long-memory flavour: estimated Hurst above white noise's.
	h, err := estimateHurst(data)
	if err != nil {
		t.Fatal(err)
	}
	if h < 0.6 {
		t.Fatalf("multi-scale noise Hurst estimate = %v, want > 0.6", h)
	}
	if _, err := NewMultiScaleNoise(0, rng); !errors.Is(err, ErrLRDConfig) {
		t.Fatalf("zero components: %v", err)
	}
	if _, err := NewMultiScaleNoise(3, nil); !errors.Is(err, ErrLRDConfig) {
		t.Fatalf("nil rng: %v", err)
	}
}

func TestGenerateDefaults(t *testing.T) {
	tr, err := Generate(GeneratorConfig{NumIntervals: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumFlows() != 81 || tr.NumIntervals() != 600 {
		t.Fatalf("shape = %dx%d", tr.NumIntervals(), tr.NumFlows())
	}
	if len(tr.FlowNames) != 81 || tr.FlowNames[1] != "ATLA→CHIC" {
		t.Fatalf("flow names = %v…", tr.FlowNames[:3])
	}
	// Volumes non-negative and finite.
	for i := 0; i < tr.NumIntervals(); i++ {
		for j := 0; j < tr.NumFlows(); j++ {
			v := tr.Volumes.At(i, j)
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("bad volume %v at (%d,%d)", v, i, j)
			}
		}
	}
	// Total volume is near the configured scale.
	var total float64
	for j := 0; j < tr.NumFlows(); j++ {
		total += tr.Volumes.At(0, j)
	}
	if total < 1e7 || total > 1e9 {
		t.Fatalf("network volume per interval = %v, want ≈1e8", total)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GeneratorConfig{NumIntervals: 100, Seed: 44}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Volumes.Equal(b.Volumes, 0) {
		t.Fatal("same seed must reproduce the same trace")
	}
	cfg.Seed = 45
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Volumes.Equal(c.Volumes, 0) {
		t.Fatal("different seeds must differ")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GeneratorConfig{}); !errors.Is(err, ErrGenConfig) {
		t.Fatalf("no intervals: %v", err)
	}
	if _, err := Generate(GeneratorConfig{NumIntervals: 10, Routers: []string{"A"}}); !errors.Is(err, ErrGenConfig) {
		t.Fatalf("one router: %v", err)
	}
	if _, err := Generate(GeneratorConfig{
		NumIntervals: 10, Routers: []string{"A", "B"}, RouterWeights: []float64{1},
	}); !errors.Is(err, ErrGenConfig) {
		t.Fatalf("weight mismatch: %v", err)
	}
	if _, err := Generate(GeneratorConfig{NumIntervals: 10, NoiseLevel: -1}); !errors.Is(err, ErrGenConfig) {
		t.Fatalf("negative noise: %v", err)
	}
	if _, err := Generate(GeneratorConfig{NumIntervals: 10, TotalVolume: -1}); !errors.Is(err, ErrGenConfig) {
		t.Fatalf("negative volume: %v", err)
	}
}

func TestGenerateLowRankStructure(t *testing.T) {
	// The centered volume matrix must concentrate most energy in a few
	// principal directions — the property PCA detection relies on.
	tr, err := Generate(GeneratorConfig{NumIntervals: 800, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	y := tr.Volumes.Clone()
	y.CenterColumns()
	g := y.Gram()
	// Total energy vs energy in top 10 eigenvalues via power-iteration-free
	// route: use the trace for total and the mat eigen solver for spectrum.
	eig, err := symEigenForTest(g)
	if err != nil {
		t.Fatal(err)
	}
	var total, top float64
	for i, v := range eig {
		if v < 0 {
			v = 0
		}
		total += v
		if i < 10 {
			top += v
		}
	}
	if total == 0 {
		t.Fatal("degenerate trace")
	}
	if frac := top / total; frac < 0.8 {
		t.Fatalf("top-10 PCs capture %v of energy, want ≥ 0.8", frac)
	}
}

func TestInjectSpike(t *testing.T) {
	tr, err := Generate(GeneratorConfig{NumIntervals: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := tr.FlowIndex("ATLA→CHIC")
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Volumes.At(100, j)
	if err := tr.InjectSpike(j, 100, 105, 3); err != nil {
		t.Fatal(err)
	}
	after := tr.Volumes.At(100, j)
	base, err := tr.BaselineMean(j)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after-before-3*base) > 1e-6*base {
		t.Fatalf("spike delta = %v, want %v", after-before, 3*base)
	}
	labels := tr.Labels()
	if !labels[100] || !labels[104] || labels[105] || labels[99] {
		t.Fatal("labels must cover exactly [100,105)")
	}
	if len(tr.Injections) != 1 || tr.Injections[0].Kind != Spike {
		t.Fatalf("injections = %+v", tr.Injections)
	}
}

func TestInjectCoordinated(t *testing.T) {
	tr, err := Generate(GeneratorConfig{NumIntervals: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	flows := []int{1, 12, 33, 61}
	if err := tr.InjectCoordinated(flows, 50, 55, 0.4); err != nil {
		t.Fatal(err)
	}
	inj := tr.Injections[0]
	if inj.Kind != Coordinated || len(inj.Flows) != 4 {
		t.Fatalf("injection = %+v", inj)
	}
	// The recorded flows are a copy.
	flows[0] = 99
	if inj.Flows[0] == 99 {
		t.Fatal("injection must copy the flow list")
	}
}

func TestInjectFlashCrowd(t *testing.T) {
	tr, err := Generate(GeneratorConfig{NumIntervals: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.InjectFlashCrowd(1, 40, 60, 2); err != nil {
		t.Fatal(err)
	}
	inj := tr.Injections[0]
	if inj.Kind != FlashCrowd || len(inj.Flows) != 8 {
		t.Fatalf("injection = %+v", inj)
	}
	// Ramp: the addition at the end of the window exceeds the start.
	j := inj.Flows[0]
	base, _ := tr.BaselineMean(j)
	early := tr.Volumes.At(41, j)
	late := tr.Volumes.At(59, j)
	if late-early < base/2 {
		t.Fatalf("flash crowd must ramp: early %v late %v base %v", early, late, base)
	}
	if err := tr.InjectFlashCrowd(99, 0, 10, 1); !errors.Is(err, ErrInject) {
		t.Fatalf("bad destination: %v", err)
	}
}

func TestInjectValidation(t *testing.T) {
	tr, err := Generate(GeneratorConfig{NumIntervals: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []error{
		tr.InjectSpike(0, -1, 5, 1),
		tr.InjectSpike(0, 5, 5, 1),
		tr.InjectSpike(0, 10, 500, 1),
		tr.InjectSpike(999, 0, 5, 1),
		tr.InjectSpike(0, 0, 5, -1),
		tr.InjectSpike(0, 0, 5, math.NaN()),
		tr.InjectCoordinated(nil, 0, 5, 1),
	}
	for i, err := range cases {
		if !errors.Is(err, ErrInject) {
			t.Fatalf("case %d: want ErrInject, got %v", i, err)
		}
	}
	if _, err := tr.FlowIndex("NOPE→NOPE"); !errors.Is(err, ErrInject) {
		t.Fatalf("flow index: %v", err)
	}
	if _, err := tr.BaselineMean(-1); !errors.Is(err, ErrInject) {
		t.Fatalf("baseline mean: %v", err)
	}
}

// Property: generation never yields negative or non-finite volumes.
func TestQuickGenerateNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		tr, err := Generate(GeneratorConfig{
			Routers:      []string{"A", "B", "C", "D"},
			NumIntervals: 64,
			Seed:         seed,
		})
		if err != nil {
			return false
		}
		for i := 0; i < tr.NumIntervals(); i++ {
			for j := 0; j < tr.NumFlows(); j++ {
				v := tr.Volumes.At(i, j)
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
