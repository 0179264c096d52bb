package anomography

import (
	"math"
	"math/rand"
	"testing"

	"streampca/internal/mat"
)

// randomBasis returns an m×r matrix with orthonormal columns, seeded.
func randomBasis(t *testing.T, m, r int, seed int64) *mat.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := mat.NewMatrix(m, r)
	for i := 0; i < m; i++ {
		for j := 0; j < r; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	qr, err := mat.ComputeQR(a)
	if err != nil {
		t.Fatal(err)
	}
	return qr.Q
}

func TestResidualOrthogonalToNormalSubspace(t *testing.T) {
	const m, r = 40, 4
	pr := randomBasis(t, m, r, 1)
	rng := rand.New(rand.NewSource(2))
	y := make([]float64, m)
	for i := range y {
		y[i] = rng.NormFloat64() * 100
	}
	res, err := Residual(pr, y)
	if err != nil {
		t.Fatal(err)
	}
	// Pᵀ·res holds the residual's inner product with every component.
	proj, err := pr.TMulVec(res)
	if err != nil {
		t.Fatal(err)
	}
	for j, d := range proj {
		if math.Abs(d) > 1e-8*mat.Norm(y) {
			t.Fatalf("residual not orthogonal to component %d: %g", j, d)
		}
	}
}

func TestPursueSingleFlow(t *testing.T) {
	const m, r, flow = 60, 5, 17
	const amount = 5000.0
	pr := randomBasis(t, m, r, 3)
	y := make([]float64, m)
	y[flow] = amount
	r0, err := Residual(pr, y)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Pursue(pr, r0, Config{MaxK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Culprits) != 1 {
		t.Fatalf("want exactly the injected flow, got %d culprits: %+v", len(res.Culprits), res.Culprits)
	}
	c := res.Culprits[0]
	if c.Flow != flow {
		t.Fatalf("identified flow %d, want %d", c.Flow, flow)
	}
	if math.Abs(c.Amount-amount)/amount > 1e-9 {
		t.Fatalf("amount %g, want %g", c.Amount, amount)
	}
	if res.ExplainedFrac < 1-1e-9 {
		t.Fatalf("single-flow injection must be fully explained, got frac %g", res.ExplainedFrac)
	}
	if res.ResidualSPE > 1e-6*res.InitialSPE {
		t.Fatalf("residual SPE %g did not vanish (initial %g)", res.ResidualSPE, res.InitialSPE)
	}
}

// TestPursueBeatsRawResidualSort reproduces the misattribution the solver
// exists to fix: when a principal component correlates the spiked flow with
// others, the projection smears the spike's residual across the correlated
// flows, and a raw |residual| sort can rank an innocent flow first. The
// pursuit divides by the signature norm ‖s_j‖, undoing the smear.
func TestPursueBeatsRawResidualSort(t *testing.T) {
	const m = 12
	// One component splitting its mass between flows 0 and 1, heavier on 0:
	// a spike on flow 0 leaks residual onto flow 1 through the projection.
	pr := mat.NewMatrix(m, 1)
	pr.Set(0, 0, math.Sqrt(0.9))
	pr.Set(1, 0, -math.Sqrt(0.1))
	y := make([]float64, m)
	y[0] = 1000
	r0, err := Residual(pr, y)
	if err != nil {
		t.Fatal(err)
	}
	// The raw residual sort misattributes: |r[1]| ≈ 300 vs |r[0]| ≈ 100.
	if math.Abs(r0[1]) < math.Abs(r0[0]) {
		t.Fatalf("test premise broken: raw residual favors the true flow (r0=%v)", r0[:2])
	}
	res, err := Pursue(pr, r0, Config{MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Culprits) == 0 || res.Culprits[0].Flow != 0 {
		t.Fatalf("pursuit must identify flow 0 first, got %+v", res.Culprits)
	}
	if math.Abs(res.Culprits[0].Amount-1000)/1000 > 1e-9 {
		t.Fatalf("amount %g, want 1000", res.Culprits[0].Amount)
	}
}

func TestPursueMultiFlow(t *testing.T) {
	const m, r = 80, 6
	pr := randomBasis(t, m, r, 7)
	truth := map[int]float64{5: 9000, 33: 6000, 61: 3000}
	y := make([]float64, m)
	for f, a := range truth {
		y[f] = a
	}
	r0, err := Residual(pr, y)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Pursue(pr, r0, Config{MaxK: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Culprits) != len(truth) {
		t.Fatalf("want %d culprits, got %+v", len(truth), res.Culprits)
	}
	for _, c := range res.Culprits {
		want, ok := truth[c.Flow]
		if !ok {
			t.Fatalf("identified innocent flow %d", c.Flow)
		}
		if math.Abs(c.Amount-want)/want > 1e-6 {
			t.Fatalf("flow %d amount %g, want %g", c.Flow, c.Amount, want)
		}
	}
	if res.ExplainedFrac < 1-1e-9 {
		t.Fatalf("explained frac %g", res.ExplainedFrac)
	}
	// Ranked by explained energy: the 9000 injection outranks the 3000 one.
	if res.Culprits[0].Confidence < res.Culprits[len(res.Culprits)-1].Confidence {
		t.Fatal("culprits not ranked by confidence")
	}
}

func TestPursueStopsAtThreshold(t *testing.T) {
	const m, r = 50, 4
	pr := randomBasis(t, m, r, 11)
	y := make([]float64, m)
	y[9] = 10000
	y[27] = 10 // far below any alarm-worthy residual
	r0, err := Residual(pr, y)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Pursue(pr, r0, Config{MaxK: 8, MinResidual: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopThreshold {
		t.Fatalf("stop %q, want %q", res.Stop, StopThreshold)
	}
	if len(res.Culprits) != 1 || res.Culprits[0].Flow != 9 {
		t.Fatalf("want only the dominant flow, got %+v", res.Culprits)
	}
	if res.ResidualSPE > 500 {
		t.Fatalf("residual SPE %g above the stop threshold", res.ResidualSPE)
	}

	// A residual already under the threshold identifies nothing.
	quiet, err := Pursue(pr, make([]float64, m), Config{MinResidual: 500})
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Stop != StopEmpty || len(quiet.Culprits) != 0 {
		t.Fatalf("quiet residual: %+v", quiet)
	}
}

func TestPursueGainStopDiscardsNoise(t *testing.T) {
	const m, r = 50, 4
	pr := randomBasis(t, m, r, 13)
	rng := rand.New(rand.NewSource(14))
	y := make([]float64, m)
	y[21] = 50000
	for i := range y {
		y[i] += rng.NormFloat64() // tiny background noise on every flow
	}
	r0, err := Residual(pr, y)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Pursue(pr, r0, Config{MaxK: 8, MinGainFrac: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopGain {
		t.Fatalf("stop %q, want %q", res.Stop, StopGain)
	}
	if len(res.Culprits) != 1 || res.Culprits[0].Flow != 21 {
		t.Fatalf("noise flows must be discarded, got %+v", res.Culprits)
	}
}

func TestPursueNoModelSubspace(t *testing.T) {
	// rank 0: the residual is the raw centered measurement and every flow's
	// signature is e_j, so pursuit degenerates to exact coordinate picking.
	y := []float64{0, 0, 7000, 0, -250, 0}
	res, err := Pursue(nil, y, Config{MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Culprits) != 2 || res.Culprits[0].Flow != 2 || res.Culprits[1].Flow != 4 {
		t.Fatalf("got %+v", res.Culprits)
	}
	if res.Culprits[0].Amount != 7000 || res.Culprits[1].Amount != -250 {
		t.Fatalf("amounts %+v", res.Culprits)
	}
}

// TestPursueDeterministicAcrossWorkers: residual and pursuit are pure functions
// of their inputs.
func TestPursueDeterministicAcrossWorkers(t *testing.T) {
	const m, r = 96, 8
	pr := randomBasis(t, m, r, 17)
	rng := rand.New(rand.NewSource(18))
	y := make([]float64, m)
	for i := range y {
		y[i] = rng.NormFloat64() * 50
	}
	y[40] += 20000
	y[71] += 12000
	var ref Result
	for i := 0; i < 2; i++ {
		r0, err := Residual(pr, y)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Pursue(pr, r0, Config{MaxK: 6})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if len(res.Culprits) != len(ref.Culprits) ||
			res.InitialSPE != ref.InitialSPE || res.ResidualSPE != ref.ResidualSPE {
			t.Fatalf("second run diverged: %+v vs %+v", res, ref)
		}
		for j := range res.Culprits {
			if res.Culprits[j] != ref.Culprits[j] {
				t.Fatalf("second run, culprit %d: %+v vs %+v", j, res.Culprits[j], ref.Culprits[j])
			}
		}
	}
}

func TestPursueBadInput(t *testing.T) {
	pr := randomBasis(t, 10, 2, 19)
	if _, err := Pursue(pr, make([]float64, 7), Config{}); err == nil {
		t.Fatal("shape mismatch must error")
	}
	bad := make([]float64, 10)
	bad[3] = math.NaN()
	if _, err := Pursue(pr, bad, Config{}); err == nil {
		t.Fatal("non-finite residual must error")
	}
	if _, err := Residual(pr, bad); err == nil {
		t.Fatal("non-finite measurement must error")
	}
}
