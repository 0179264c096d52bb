package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// decayingSpectrum builds a plausible singular-value profile η_j ~ c·ρ^j.
func decayingSpectrum(m int, top, decay float64) []float64 {
	out := make([]float64, m)
	v := top
	for i := range out {
		out[i] = v
		v *= decay
	}
	return out
}

func TestQStatisticBasic(t *testing.T) {
	sv := decayingSpectrum(10, 100, 0.6)
	q, err := QStatistic(sv, 500, 3, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if q <= 0 || math.IsNaN(q) || math.IsInf(q, 0) {
		t.Fatalf("threshold = %v", q)
	}
}

func TestQStatisticErrors(t *testing.T) {
	sv := decayingSpectrum(5, 10, 0.5)
	if _, err := QStatistic(nil, 100, 1, 0.01); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := QStatistic(sv, 100, -1, 0.01); !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative rank: %v", err)
	}
	if _, err := QStatistic(sv, 100, 6, 0.01); !errors.Is(err, ErrBadInput) {
		t.Fatalf("rank > m: %v", err)
	}
	if _, err := QStatistic(sv, 1, 1, 0.01); !errors.Is(err, ErrBadInput) {
		t.Fatalf("window 1: %v", err)
	}
	if _, err := QStatistic(sv, 100, 1, 2); !errors.Is(err, ErrProbRange) {
		t.Fatalf("alpha 2: %v", err)
	}
}

// TestQStatisticDegenerate pins the typed error on spectra where the
// Jackson–Mudholkar expansion breaks down: one dominant residual variance
// plus many small ones pushes φ1φ3/φ2² past 3/2, making h0 negative. The old
// behavior clamped h0 to 1e-3, which raised the threshold astronomically
// (Pow(inner, 1000)) and silently disabled alarming.
func TestQStatisticDegenerate(t *testing.T) {
	sv := make([]float64, 101)
	sv[0] = 1
	for i := 1; i < len(sv); i++ {
		// 100 tail variances of 0.01 sum to the dominant variance 1:
		// φ1φ3/φ2² ≈ 2·1/1.01² ≈ 1.96 > 3/2 ⇒ h0 ≈ −0.31.
		sv[i] = 0.1
	}
	_, err := QStatistic(sv, 100, 0, 0.01)
	if !errors.Is(err, ErrDegenerate) {
		t.Fatalf("want ErrDegenerate, got %v", err)
	}
	// Shifting the heavy component into the normal subspace leaves an
	// equal-variance residual (h0 = 1/3): a valid threshold again.
	q, err := QStatistic(sv, 100, 1, 0.01)
	if err != nil {
		t.Fatalf("rank 1: %v", err)
	}
	if q <= 0 || math.IsNaN(q) || math.IsInf(q, 0) {
		t.Fatalf("rank 1 threshold = %v", q)
	}
}

// TestQStatisticCapped pins the residual-rank capping bugfix: the h0 ≤ 0
// spectrum above must yield a usable (capped) threshold instead of leaving
// the detector threshold-less, well-conditioned spectra must pass through
// uncapped and bit-identical, and only a spectrum no cap can salvage keeps
// the typed error.
func TestQStatisticCapped(t *testing.T) {
	// Well-conditioned: identical to QStatistic, zero components dropped.
	sv := decayingSpectrum(10, 100, 0.6)
	exact, err := QStatistic(sv, 500, 3, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	q, capped, err := QStatisticCapped(sv, 500, 3, 0.01)
	if err != nil || capped != 0 || q != exact {
		t.Fatalf("well-conditioned: q=%v capped=%d err=%v, want exactly %v", q, capped, err, exact)
	}

	// The degenerate spectrum of TestQStatisticDegenerate: capping must
	// recover a finite positive threshold by dropping trailing components,
	// and the value must match QStatistic over the kept slice.
	sv = make([]float64, 101)
	sv[0] = 1
	for i := 1; i < len(sv); i++ {
		sv[i] = 0.1
	}
	q, capped, err = QStatisticCapped(sv, 100, 0, 0.01)
	if err != nil {
		t.Fatalf("degenerate spectrum not salvaged: %v", err)
	}
	if capped <= 0 {
		t.Fatalf("capped = %d, want > 0 on an h0-degenerate residual", capped)
	}
	if q <= 0 || math.IsNaN(q) || math.IsInf(q, 0) {
		t.Fatalf("capped threshold = %v", q)
	}
	kept := len(sv) - capped
	want, err := QStatistic(sv[:kept], 100, 0, 0.01)
	if err != nil || q != want {
		t.Fatalf("capped q = %v, want QStatistic over %d kept components = %v (%v)", q, kept, want, err)
	}
	// Dropping trailing variance only shrinks φ1: the capped limit must sit
	// at or below what the same expansion would give with more tail energy,
	// i.e. it alarms at least as readily — never less.
	if more, err := QStatistic(sv[:kept+1], 100, 0, 0.01); err == nil && q > more {
		t.Fatalf("capped threshold %v above the longer slice's %v", q, more)
	}

	// ErrBadInput passes through unsalvaged.
	if _, _, err := QStatisticCapped(nil, 100, 1, 0.01); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty: %v", err)
	}
	// A spectrum no cap salvages (non-finite leading variance poisons every
	// slice) keeps the typed degenerate error.
	bad := []float64{math.Inf(1), 1, 0.5}
	if _, _, err := QStatisticCapped(bad, 100, 0, 0.01); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("unsalvageable spectrum: %v", err)
	}
}

// A single-component residual has h0 = 1 − 2φ1φ3/(3φ2²) = 1 − 2/3 = 1/3 > 0,
// so capping always terminates with a usable limit when the leading residual
// variance is positive and finite — for any spectrum shape.
func TestQStatisticCappedAlwaysTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.Intn(40)
		r := rng.Intn(m)
		sv := make([]float64, m)
		for i := range sv {
			// Wildly skewed magnitudes to provoke h0 ≤ 0 shapes.
			sv[i] = math.Pow(10, 4*rng.Float64()-2) * rng.Float64()
		}
		sortDescending(sv)
		q, capped, err := QStatisticCapped(sv, 64, r, 0.01)
		if err != nil {
			t.Fatalf("trial %d (m=%d r=%d sv=%v): %v", trial, m, r, sv, err)
		}
		if math.IsNaN(q) || math.IsInf(q, 0) || q < 0 {
			t.Fatalf("trial %d: q = %v", trial, q)
		}
		if capped < 0 || capped >= m-r && capped != 0 {
			t.Fatalf("trial %d: capped = %d of %d residual components", trial, capped, m-r)
		}
	}
}

func sortDescending(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] > v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestQStatisticFullRankResidualEmpty(t *testing.T) {
	sv := decayingSpectrum(4, 10, 0.5)
	q, err := QStatistic(sv, 100, 4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if q != 0 {
		t.Fatalf("empty residual threshold = %v, want 0", q)
	}
}

func TestQStatisticZeroResidualEnergy(t *testing.T) {
	sv := []float64{10, 5, 0, 0}
	q, err := QStatistic(sv, 100, 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if q != 0 {
		t.Fatalf("zero-energy residual threshold = %v, want 0", q)
	}
}

// The threshold must shrink as alpha grows (a 10% false-alarm budget accepts
// a lower bar than a 0.1% budget).
func TestQStatisticMonotoneInAlpha(t *testing.T) {
	sv := decayingSpectrum(12, 50, 0.7)
	prev := math.Inf(1)
	for _, alpha := range []float64{0.001, 0.01, 0.05, 0.1, 0.2} {
		q, err := QStatistic(sv, 1000, 4, alpha)
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		if q > prev {
			t.Fatalf("threshold not monotone: Q(%v) = %v > previous %v", alpha, q, prev)
		}
		prev = q
	}
}

// The threshold should grow with the residual energy.
func TestQStatisticGrowsWithResidualEnergy(t *testing.T) {
	small := []float64{100, 50, 1, 0.5, 0.25}
	large := []float64{100, 50, 10, 5, 2.5}
	qs, err := QStatistic(small, 200, 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	ql, err := QStatistic(large, 200, 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if ql <= qs {
		t.Fatalf("Q(large residual) = %v should exceed Q(small residual) = %v", ql, qs)
	}
}

// Empirical false-alarm calibration: for Gaussian residual data the SPE of
// held-out samples should exceed Q_alpha at roughly rate alpha.
func TestQStatisticCalibrationOnGaussianData(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, m, r := 4000, 8, 0
	// All components are residual (r = 0), unit variance everywhere.
	sv := make([]float64, m)
	for j := range sv {
		sv[j] = math.Sqrt(float64(n - 1)) // σ_j² = 1
	}
	q, err := QStatistic(sv, n, r, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var exceed int
	trials := 20000
	for i := 0; i < trials; i++ {
		var d2 float64
		for j := 0; j < m; j++ {
			x := rng.NormFloat64()
			d2 += x * x
		}
		if math.Sqrt(d2) > q {
			exceed++
		}
	}
	rate := float64(exceed) / float64(trials)
	if rate < 0.02 || rate > 0.10 {
		t.Fatalf("empirical exceedance %v, want ≈0.05", rate)
	}
}

// Property: Q is finite and non-negative for arbitrary decaying spectra.
func TestQuickQStatisticFinite(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 2 + r.Intn(20)
		sv := make([]float64, m)
		v := 1 + r.Float64()*1000
		for i := range sv {
			sv[i] = v
			v *= 0.3 + 0.6*r.Float64()
		}
		rank := r.Intn(m)
		alpha := 0.001 + 0.3*r.Float64()
		q, err := QStatistic(sv, 2+r.Intn(5000), rank, alpha)
		if err != nil {
			return false
		}
		return q >= 0 && !math.IsNaN(q) && !math.IsInf(q, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// qStatisticCappedPerCap is QStatisticCapped as it was first written, one
// QStatistic per cap from full−1 down to 1: the reference the one-pass scan
// must match bit for bit.
func qStatisticCappedPerCap(singularValues []float64, windowLen, normalRank int, alpha float64) (float64, int, error) {
	q, err := QStatistic(singularValues, windowLen, normalRank, alpha)
	if err == nil || !errors.Is(err, ErrDegenerate) {
		return q, 0, err
	}
	full := len(singularValues) - normalRank
	lastErr := err
	for k := full - 1; k >= 1; k-- {
		q, err := QStatistic(singularValues[normalRank:normalRank+k], windowLen, 0, alpha)
		if err == nil {
			return q, full - k, nil
		}
		if !errors.Is(err, ErrDegenerate) {
			return 0, 0, err
		}
		lastErr = err
	}
	return 0, 0, lastErr
}

// TestQStatisticCappedMatchesPerCapScan: the one-pass cap scan returns the
// per-cap reference's threshold bits, drop count and error on random
// spectra, most of them capped, and on ones no cap salvages.
func TestQStatisticCappedMatchesPerCapScan(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const trials = 4000
	capped := 0
	for trial := 0; trial < trials; trial++ {
		m := 2 + rng.Intn(90)
		r := rng.Intn(m)
		n := 2 + rng.Intn(300)
		sv := make([]float64, m)
		// Mostly a dominant residual component over a long flat tail of
		// about its energy, the shape that drives h0 below zero.
		tail := (0.5 + 1.5*rng.Float64()) / math.Sqrt(float64(m-r))
		for i := range sv {
			switch {
			case trial%4 == 0:
				sv[i] = math.Pow(10, 6*rng.Float64()-3) * rng.Float64()
			case i <= r:
				sv[i] = 1 + rng.Float64()
			default:
				sv[i] = tail * (1 + 0.2*rng.Float64())
			}
		}
		sortDescending(sv)
		if trial%50 == 0 {
			sv[r] = math.Inf(1) // no cap salvages a non-finite leading variance
		}
		q, drop, err := QStatisticCapped(sv, n, r, 0.01)
		wq, wdrop, werr := qStatisticCappedPerCap(sv, n, r, 0.01)
		if math.Float64bits(q) != math.Float64bits(wq) || drop != wdrop || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("trial %d (m=%d r=%d n=%d): got %v, %d, %v; the per-cap scan %v, %d, %v",
				trial, m, r, n, q, drop, err, wq, wdrop, werr)
		}
		if drop > 0 {
			capped++
		}
	}
	if capped < trials/4 {
		t.Fatalf("only %d of %d spectra capped: the comparison does not exercise the scan", capped, trials)
	}
}

// TestQStatisticCappedAllocatesNothing: a capping spectrum costs no
// allocation, neither for the caps it rejects nor for the one it keeps.
func TestQStatisticCappedAllocatesNothing(t *testing.T) {
	sv := make([]float64, 81)
	sv[0] = 1
	for i := 1; i < len(sv); i++ {
		sv[i] = 0.1
	}
	if _, drop, err := QStatisticCapped(sv, 144, 0, 0.01); err != nil || drop == 0 {
		t.Fatalf("spectrum does not cap: drop %d, %v", drop, err)
	}
	if avg := testing.AllocsPerRun(100, func() { _, _, _ = QStatisticCapped(sv, 144, 0, 0.01) }); avg != 0 {
		t.Fatalf("QStatisticCapped allocates %.1f times on a capping spectrum", avg)
	}
}
