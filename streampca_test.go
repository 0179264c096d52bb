package streampca

import (
	"errors"
	"math/rand"
	"testing"
)

// facadeRow synthesizes a structured volume vector for the facade tests.
func facadeRow(rng *rand.Rand, m int) []float64 {
	f1 := 1000 + 100*rng.NormFloat64()
	f2 := 400 + 60*rng.NormFloat64()
	row := make([]float64, m)
	for j := range row {
		row[j] = float64(j%3+1)*f1 + float64(j%2+1)*f2 + 5*rng.NormFloat64()
	}
	return row
}

func TestFacadeClusterLifecycle(t *testing.T) {
	const (
		m      = 12
		window = 96
	)
	cl, err := NewCluster(ClusterConfig{
		NumFlows:    m,
		NumMonitors: 3,
		WindowLen:   window,
		Epsilon:     0.05,
		Alpha:       0.005,
		SketchLen:   48, Seed: 17,
		Mode:      RankFixed,
		FixedRank: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var interval int64
	for i := 0; i < 2*window; i++ {
		interval++
		if _, err := cl.Step(interval, facadeRow(rng, m)); err != nil {
			t.Fatal(err)
		}
	}
	// Inject and detect.
	interval++
	bad := facadeRow(rng, m)
	bad[1] += 4e4
	bad[7] += 3e4
	if err := cl.Update(interval, facadeRow(rng, m)); err != nil {
		t.Fatal(err)
	}
	dec, err := cl.Detector().Observe(bad, cl.Fetch)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Anomalous {
		t.Fatalf("anomaly missed: %+v", dec)
	}
}

func TestFacadeConstructorsAndErrors(t *testing.T) {
	if _, err := NewMonitor(MonitorConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("monitor: %v", err)
	}
	if _, err := NewDetector(DetectorConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("detector: %v", err)
	}
	if _, err := NewCluster(ClusterConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("cluster: %v", err)
	}
	if _, err := NewSketchGenerator(SketchConfig{}); err == nil {
		t.Fatal("generator without sketch length must fail")
	}
	det, err := NewDetector(DetectorConfig{
		NumFlows: 2, WindowLen: 10, SketchLen: 4, Alpha: 0.01, FixedRank: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Distance([]float64{1, 2}); !errors.Is(err, ErrNoModel) {
		t.Fatalf("no model: %v", err)
	}
}

func TestFacadeDistributionConstants(t *testing.T) {
	for _, d := range []SketchDistribution{Gaussian, TugOfWar, Sparse, VerySparse} {
		if d.String() == "unknown" {
			t.Fatalf("distribution %d unnamed", int(d))
		}
	}
	for _, m := range []RankMode{RankFixed, RankThreeSigma, RankEnergy} {
		if m.String() == "unknown" {
			t.Fatalf("rank mode %d unnamed", int(m))
		}
	}
}
