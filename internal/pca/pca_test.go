package pca

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streampca/internal/mat"
)

// lowRankData builds an n×m matrix whose rows live near a rank-k subspace
// plus small noise, the regime PCA detection assumes.
func lowRankData(rng *rand.Rand, n, m, k int, noise float64) *mat.Matrix {
	basis := mat.NewMatrix(m, k)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			basis.Set(i, j, rng.NormFloat64())
		}
	}
	x := mat.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		coeff := make([]float64, k)
		for j := range coeff {
			coeff[j] = rng.NormFloat64() * 10
		}
		row := x.RowView(i)
		for a := 0; a < m; a++ {
			var s float64
			for j := 0; j < k; j++ {
				s += basis.At(a, j) * coeff[j]
			}
			row[a] = 100 + s + noise*rng.NormFloat64()
		}
	}
	return x
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(mat.NewMatrix(1, 3)); !errors.Is(err, ErrInput) {
		t.Fatalf("one row: %v", err)
	}
	if _, err := Fit(mat.NewMatrix(5, 0)); !errors.Is(err, ErrInput) {
		t.Fatalf("no columns: %v", err)
	}
	bad := mat.NewMatrix(3, 2)
	bad.Set(0, 0, math.NaN())
	if _, err := Fit(bad); !errors.Is(err, ErrInput) {
		t.Fatalf("NaN: %v", err)
	}
}

func TestFitRecoversSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n, m, k := 300, 12, 3
	x := lowRankData(rng, n, m, k, 0.01)
	model, err := Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	if model.WindowLen != n || model.NumFlows() != m {
		t.Fatalf("model dims: n=%d m=%d", model.WindowLen, model.NumFlows())
	}
	// Energy concentrates in the top k components.
	var total, top float64
	for j, s := range model.Singular {
		total += s * s
		if j < k {
			top += s * s
		}
	}
	if top/total < 0.99 {
		t.Fatalf("top-%d energy fraction = %v", k, top/total)
	}
	// Descending singular values.
	for j := 1; j < m; j++ {
		if model.Singular[j] > model.Singular[j-1]+1e-9 {
			t.Fatal("singular values not descending")
		}
	}
}

func TestFitMatchesSVDOfCenteredMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := lowRankData(rng, 60, 7, 4, 1)
	model, err := Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	y := x.Clone()
	y.CenterColumns()
	// Independent reference: the singular values of Y are the square roots
	// of YᵀY's eigenvalues, taken from the Jacobi solver Fit does not use.
	eig, err := mat.SymEigenJacobi(y.Gram())
	if err != nil {
		t.Fatal(err)
	}
	top := math.Sqrt(eig.Values[0])
	for j := range model.Singular {
		want := math.Sqrt(math.Max(eig.Values[j], 0))
		if math.Abs(model.Singular[j]-want) > 1e-7*math.Max(1, top) {
			t.Fatalf("η_%d = %v vs SVD %v", j, model.Singular[j], want)
		}
	}
}

func TestCenterAndScore(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := lowRankData(rng, 50, 5, 2, 0.5)
	model, err := Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	raw := x.Row(0)
	y, err := model.Center(raw)
	if err != nil {
		t.Fatal(err)
	}
	for j := range y {
		if math.Abs(y[j]-(raw[j]-model.Means[j])) > 1e-12 {
			t.Fatal("center mismatch")
		}
	}
	if _, err := model.Center([]float64{1}); !errors.Is(err, ErrInput) {
		t.Fatalf("short vector: %v", err)
	}
	if _, err := model.Score(y, -1); !errors.Is(err, ErrRank) {
		t.Fatalf("bad component: %v", err)
	}
	if _, err := model.Score([]float64{1}, 0); !errors.Is(err, ErrInput) {
		t.Fatalf("short score vector: %v", err)
	}
	// Scores reconstruct the vector: Σ_j score_j² == ‖y‖².
	var sum float64
	for j := 0; j < model.NumFlows(); j++ {
		s, err := model.Score(y, j)
		if err != nil {
			t.Fatal(err)
		}
		sum += s * s
	}
	want := mat.Dot(y, y)
	if math.Abs(sum-want) > 1e-8*math.Max(1, want) {
		t.Fatalf("Σ score² = %v, ‖y‖² = %v", sum, want)
	}
}

func TestDetectorBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := lowRankData(rng, 500, 10, 3, 0.5)
	model, err := Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(model, 3, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if det.Threshold() <= 0 {
		t.Fatalf("threshold = %v", det.Threshold())
	}

	// A typical window row should be below threshold.
	var anomalies int
	for i := 0; i < x.Rows(); i++ {
		bad, _, err := det.IsAnomalous(x.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if bad {
			anomalies++
		}
	}
	if rate := float64(anomalies) / float64(x.Rows()); rate > 0.1 {
		t.Fatalf("false-alarm rate on training data = %v", rate)
	}

	// A vector pushed far along a residual direction must trip it.
	outlier := x.Row(0)
	for j := range outlier {
		outlier[j] += 1e3 * model.Components.At(j, 9)
	}
	bad, dist, err := det.IsAnomalous(outlier)
	if err != nil {
		t.Fatal(err)
	}
	if !bad {
		t.Fatalf("outlier not detected: distance %v vs threshold %v", dist, det.Threshold())
	}
}

func TestDetectorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := lowRankData(rng, 50, 4, 2, 0.5)
	model, err := Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDetector(nil, 1, 0.01); !errors.Is(err, ErrInput) {
		t.Fatalf("nil model: %v", err)
	}
	if _, err := NewDetector(model, -1, 0.01); !errors.Is(err, ErrRank) {
		t.Fatalf("negative rank: %v", err)
	}
	if _, err := NewDetector(model, 5, 0.01); !errors.Is(err, ErrRank) {
		t.Fatalf("rank > m: %v", err)
	}
	det, err := NewDetector(model, 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Distance([]float64{1}); !errors.Is(err, ErrInput) {
		t.Fatalf("short vector: %v", err)
	}
}

func TestWindowRing(t *testing.T) {
	w, err := NewWindow(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Full() || w.Len() != 0 {
		t.Fatal("fresh window state")
	}
	for i := 1; i <= 5; i++ {
		if err := w.Push([]float64{float64(i), float64(10 * i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !w.Full() || w.Len() != 3 {
		t.Fatal("window must be full with 3 rows")
	}
	// Rows 3, 4, 5 remain; each further push evicts the oldest in turn.
	for want := 3.0; want <= 5; want++ {
		oldest, err := w.Oldest()
		if err != nil {
			t.Fatal(err)
		}
		if oldest[0] != want || oldest[1] != 10*want {
			t.Fatalf("oldest = %v, want row %v", oldest, want)
		}
		if err := w.Push([]float64{0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Push([]float64{1}); !errors.Is(err, ErrInput) {
		t.Fatalf("short push: %v", err)
	}
	if _, err := NewWindow(1, 1); !errors.Is(err, ErrInput) {
		t.Fatalf("tiny window: %v", err)
	}
}

func TestSlidingDetectorLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n, m := 60, 6
	x := lowRankData(rng, 400, m, 2, 0.5)
	sd, err := NewSlidingDetector(SlidingConfig{
		WindowLen: n, NumFlows: m, Rank: 2, Alpha: 0.01, RefitEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var readyAt = -1
	var anomalies, refits int
	for i := 0; i < x.Rows(); i++ {
		res, err := sd.Observe(x.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Refitted {
			refits++
		}
		if res.Ready && readyAt < 0 {
			readyAt = i
		}
		if !res.Ready && readyAt >= 0 {
			t.Fatal("detector must stay ready once warmed")
		}
		if res.Anomalous {
			anomalies++
		}
	}
	if readyAt != n-1 {
		t.Fatalf("ready at %d, want %d", readyAt, n-1)
	}
	// With cadence 5 and (400−60+1) ready steps, refits ≈ 69.
	if refits > 80 || refits < 60 {
		t.Fatalf("refits = %d", refits)
	}
	if rate := float64(anomalies) / 340; rate > 0.2 {
		t.Fatalf("false alarms = %v", rate)
	}
}

func TestSlidingDetectorDetectsInjectedSpike(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n, m := 80, 8
	x := lowRankData(rng, 300, m, 2, 0.5)
	// Refit on a cadence so the spiked interval is tested against a model
	// fitted on clean data — with per-interval refits the spike would
	// contaminate the components it is tested against (the poisoning
	// effect the paper cites from Rubinstein et al.).
	sd, err := NewSlidingDetector(SlidingConfig{
		WindowLen: n, NumFlows: m, Rank: 2, Alpha: 0.02, RefitEvery: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	spikeAt := 250 // not on the refit grid 79+7k
	var spikeResult Result
	for i := 0; i < x.Rows(); i++ {
		row := x.Row(i)
		if i == spikeAt {
			// A volume anomaly concentrated on two flows breaks the
			// low-rank structure and must land in the residual subspace.
			row[0] += 500
			row[3] += 300
		}
		res, err := sd.Observe(row)
		if err != nil {
			t.Fatal(err)
		}
		if i == spikeAt {
			spikeResult = res
		}
	}
	if !spikeResult.Ready || !spikeResult.Anomalous {
		t.Fatalf("spike not detected: %+v", spikeResult)
	}
}

func TestSlidingDetectorValidation(t *testing.T) {
	base := SlidingConfig{WindowLen: 10, NumFlows: 4, Rank: 2, Alpha: 0.01}
	bad := base
	bad.Rank = 9
	if _, err := NewSlidingDetector(bad); !errors.Is(err, ErrRank) {
		t.Fatalf("rank: %v", err)
	}
	bad = base
	bad.Alpha = 0
	if _, err := NewSlidingDetector(bad); !errors.Is(err, ErrInput) {
		t.Fatalf("alpha: %v", err)
	}
	bad = base
	bad.RefitEvery = -1
	if _, err := NewSlidingDetector(bad); !errors.Is(err, ErrInput) {
		t.Fatalf("cadence: %v", err)
	}
	bad = base
	bad.WindowLen = 1
	if _, err := NewSlidingDetector(bad); !errors.Is(err, ErrInput) {
		t.Fatalf("window: %v", err)
	}
}

// Property: distance is zero for vectors inside the normal subspace and
// positive for vectors with residual mass; rank = m ⇒ distance always 0.
func TestQuickDistanceSubspaceGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := lowRankData(rng, 120, 6, 3, 0.5)
	model, err := Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewDetector(model, 6, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewDetector(model, 3, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random vector in the span of the first 3 components, offset by
		// the means so Center recovers it exactly.
		y := make([]float64, 6)
		for j := 0; j < 3; j++ {
			c := r.NormFloat64() * 100
			for i := 0; i < 6; i++ {
				y[i] += c * model.Components.At(i, j)
			}
		}
		raw := make([]float64, 6)
		for i := range raw {
			raw[i] = y[i] + model.Means[i]
		}
		dFull, err := full.Distance(raw)
		if err != nil {
			return false
		}
		dPart, err := part.Distance(raw)
		if err != nil {
			return false
		}
		scale := math.Max(1, mat.Norm(y))
		return dFull < 1e-7*scale && dPart < 1e-7*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: distance is monotone non-increasing in the rank r.
func TestQuickDistanceMonotoneInRank(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := lowRankData(rng, 100, 5, 2, 1)
	model, err := Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	dets := make([]*Detector, 6)
	for r := 0; r <= 5; r++ {
		d, err := NewDetector(model, r, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		dets[r] = d
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		raw := make([]float64, 5)
		for i := range raw {
			raw[i] = 100 + 50*r.NormFloat64()
		}
		prev := math.Inf(1)
		for rank := 0; rank <= 5; rank++ {
			d, err := dets[rank].Distance(raw)
			if err != nil {
				return false
			}
			if d > prev+1e-9 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
