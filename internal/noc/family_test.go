package noc

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/monitor"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
	"streampca/internal/tier"
)

const (
	testFDEll = 6
	// fdTestFlows keeps each of the three striped monitor shards wider than
	// the 2ℓ = 12 row buffer, as the FD compression bound 2ℓ < w demands.
	fdTestFlows = 39
)

// fdNocConfig mirrors nocConfig for the Frequent Directions family: the
// detector's SketchLen carries the basis budget ℓ monitors must announce.
func fdNocConfig() Config {
	return Config{
		Detector: core.DetectorConfig{
			Family:    sketch.FamilyFD,
			NumFlows:  fdTestFlows,
			WindowLen: testWindow,
			SketchLen: testFDEll,
			Alpha:     0.002,
			FixedRank: 2,
		},
		Pull: tier.PullPolicy{Timeout: 2 * time.Second},
	}
}

// fdTrafficRow synthesizes a rank-2-plus-noise volume vector over the FD
// tests' wider flow space.
func fdTrafficRow(rng *rand.Rand) []float64 {
	f1 := 1000 + 200*rng.NormFloat64()
	f2 := 500 + 100*rng.NormFloat64()
	row := make([]float64, fdTestFlows)
	for j := range row {
		w1 := float64(j%3) + 1
		w2 := float64(j%4) + 1
		row[j] = math.Round(w1*f1 + w2*f2 + 10*rng.NormFloat64())
	}
	return row
}

func TestFDEndToEndDetection(t *testing.T) {
	// The full distributed loop on the FD family: per-monitor block
	// snapshots are pulled over the wire, merged at the NOC by RebuildFD,
	// and the lazy protocol raises an alarm on a structured spike.
	dep := deploy(t, fdNocConfig(), Topology{Monitors: 3})
	svc := dep.NOC

	rng := rand.New(rand.NewSource(54))
	var interval int64
	for i := 0; i < testWindow+10; i++ {
		interval++
		step(t, dep, interval, fdTrafficRow(rng))
	}
	if !svc.HasModel() {
		t.Fatal("NOC must have built a model from FD blocks")
	}

	var alarms int
	for i := 0; i < 20; i++ {
		interval++
		if d := step(t, dep, interval, fdTrafficRow(rng)); d.Result.Anomalous {
			alarms++
		}
	}
	if alarms > 5 {
		t.Fatalf("%d/20 alarms on normal traffic", alarms)
	}

	// Moderate, structure-breaking shift: the monitors fold the interval
	// into their FD buffers before serving the pull, so an overwhelming
	// spike would hijack a top principal component of the refreshed model;
	// this one clears the threshold without capturing the subspace.
	interval++
	bad := fdTrafficRow(rng)
	bad[0] += 8000
	bad[5] += 6000
	if d := step(t, dep, interval, bad); !d.Result.Anomalous {
		t.Fatalf("injected anomaly missed: %+v", d.Result)
	}
}

func TestFDDegradedBlockFallback(t *testing.T) {
	// When an FD monitor vanishes, the degraded fetch path substitutes its
	// whole cached block (FD state only merges at block granularity) and the
	// rebuilt model is flagged degraded with that monitor's flows stale.
	cfg := fdNocConfig()
	cfg.Pull.Timeout = 500 * time.Millisecond
	cfg.Degraded = tier.DegradedPolicy{Enabled: true, MaxStaleness: 1 << 40}
	dep := deploy(t, cfg, Topology{Monitors: 3})
	svc := dep.NOC

	rng := rand.New(rand.NewSource(56))
	var interval int64
	for i := 0; i < testWindow+5; i++ {
		interval++
		step(t, dep, interval, fdTrafficRow(rng))
	}
	if !svc.HasModel() {
		t.Fatal("warmup must have built a model (populating the block cache)")
	}

	_ = dep.Monitors[2].Close()
	waitMonitors(t, svc, 2)

	// A spike forces a sketch pull; the dead monitor's 13 striped flows come
	// from its cached block, and its volumes from the last-volume cache.
	interval++
	bad := fdTrafficRow(rng)
	bad[0] += 5e5
	bad[4] += 3e5
	reportFrom(t, dep, interval, bad, 0, 1)
	d := nextDecision(t, dep.decisions, interval)
	if !d.Degraded {
		t.Fatalf("decision not degraded: %+v", d)
	}
	if !d.Result.Refreshed || !d.Result.Degraded || d.Result.StaleFlows != 13 {
		t.Fatalf("model not rebuilt from the cached block: %+v", d.Result)
	}
}

func TestFamilyMismatchRejected(t *testing.T) {
	// A randproj NOC refuses an FD monitor and vice versa; an FD monitor
	// with the wrong basis budget ℓ is refused too.
	rpSvc, _ := startNOC(t, nocConfig())
	fdMon, err := monitor.New(monitor.Config{
		ID: "fd", Family: sketch.FamilyFD, FlowIDs: []int{0, 1, 2},
		WindowLen: testWindow, FDEll: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fdMon.Connect(rpSvc.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	defer fdMon.Close()

	fdSvc, _ := startNOC(t, fdNocConfig())
	rpMon, err := monitor.New(monitor.Config{
		ID: "rp", FlowIDs: []int{0, 1, 2}, WindowLen: testWindow,
		Sketch: randproj.Config{Seed: testSeed, SketchLen: testFDEll},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rpMon.Connect(fdSvc.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	defer rpMon.Close()

	badEllFlows := make([]int, 15)
	for i := range badEllFlows {
		badEllFlows[i] = 3 + i
	}
	badEll, err := monitor.New(monitor.Config{
		ID: "bad-ell", Family: sketch.FamilyFD, FlowIDs: badEllFlows,
		WindowLen: testWindow, FDEll: testFDEll + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := badEll.Connect(fdSvc.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	defer badEll.Close()

	time.Sleep(200 * time.Millisecond)
	if got := rpSvc.Monitors(); len(got) != 0 {
		t.Fatalf("randproj NOC registered FD monitor: %v", got)
	}
	if got := fdSvc.Monitors(); len(got) != 0 {
		t.Fatalf("FD NOC registered mismatched monitors: %v", got)
	}
}

func TestFDSelfCheckRejected(t *testing.T) {
	cfg := fdNocConfig()
	cfg.SelfCheckEvery = 8
	if _, err := New(cfg); err == nil {
		t.Fatal("FD family with the randproj-only oracle self-check must fail")
	}
}
