package vh

import (
	"math"
	"math/rand"
	"testing"
	_ "unsafe" // go:linkname
)

// matUseAVX2 is internal/mat's switch between its AVX2 row kernels and the Go
// loops they replace.
//
//go:linkname matUseAVX2 streampca/internal/mat.useAVX2
var matUseAVX2 bool

// checkTwin feeds (ti, x) to twin through the expiry and insertion passes that
// Update's one pass replaces (onePass cleared) and requires twin to agree bit
// for bit with h, which has already taken the same update with onePass set:
// totalZ, totalR, Sketch() and EstimateMean().
func checkTwin(t testing.TB, h, twin *Histogram, ti int64, x float64) {
	t.Helper()
	onePass = false
	err := twin.Update(ti, x)
	onePass = true
	if err != nil {
		t.Fatalf("twin update t=%d: %v", ti, err)
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("t=%d: %s[%d] is %v (%#x) in one pass, %v (%#x) in two",
					ti, what, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
			}
		}
	}
	same("totalZ", h.totalZ, twin.totalZ)
	same("totalR", h.totalR, twin.totalR)
	same("Sketch()", h.Sketch(), twin.Sketch())
	same("EstimateMean()", []float64{h.EstimateMean()}, []float64{twin.EstimateMean()})
}

// TestOnePassMatchesThePasses runs twin histograms on one stream, one through
// Update's mat.SlideSums pass and one through the expiry and insertion passes
// it replaces, and compares them bit for bit after every update (checkTwin),
// on both of mat's row-update paths. The stream has steady singletons with
// scheduled rebases among them, gaps of exactly n + 1 between the element
// leaving and the one entering (both rows in one ring slot), a fall from 1e12
// to unit volumes (the cliff rebase) and zero volumes against the rows'
// negative entries (−0 products); the points are the deployed monitor's and
// one with rows shorter than the kernels take.
func TestOnePassMatchesThePasses(t *testing.T) {
	have := matUseAVX2
	defer func() { matUseAVX2 = have }()
	for _, p := range []struct {
		name string
		avx  bool
	}{{"avx2", true}, {"go", false}} {
		t.Run(p.name, func(t *testing.T) {
			if p.avx && !have {
				t.Skip("no AVX2 kernels on this CPU")
			}
			matUseAVX2 = p.avx
			onePassMatchesThePasses(t)
		})
	}
}

func onePassMatchesThePasses(t *testing.T) {
	for _, c := range []struct{ n, l int }{
		{144, 100}, // flat-* and fed-wide
		{144, 7},   // rows the kernels leave to the Go loops
	} {
		cfg := Config{WindowLen: c.n, Gen: newRing(t, 5, c.l, c.n)}
		h := mustHist(t, cfg)
		cfg.Gen = newRing(t, 5, c.l, c.n)
		twin := mustHist(t, cfg)
		rng := rand.New(rand.NewSource(49))
		var ti int64
		step := func(x float64) {
			t.Helper()
			ti++
			if err := h.Update(ti, x); err != nil {
				t.Fatalf("update t=%d: %v", ti, err)
			}
			checkTwin(t, h, twin, ti, x)
		}
		volume := func() float64 { return 1e6 * rng.Float64() }

		for i := 0; i < 3*c.n; i++ {
			step(volume())
		}
		// Skip s+1 and s+n: at s+n+1 only element s leaves, and its row and
		// the new one share slot s mod (n+1). Rebases fall on some of these
		// updates; at least one must slide.
		slid := 0
		for phase := 0; phase < 6; phase++ {
			for i := 0; i < 1+17*phase; i++ {
				step(volume())
			}
			ti++
			for i := 0; i < c.n-2; i++ {
				step(volume())
			}
			ti++
			step(volume())
			if h.sinceRebase != 0 {
				slid++
			}
		}
		if slid == 0 {
			t.Fatalf("n=%d l=%d: every ring-slot gap fell on a rebase", c.n, c.l)
		}
		// A window of 1e12 volumes, then unit ones: the cliff rebase.
		for i := 0; i < c.n; i++ {
			step(1e12 * (1 + rng.Float64()))
		}
		for i := 0; i < 2*c.n; i++ {
			step(1 + rng.Float64())
		}
		// Zero volumes, alone and between others.
		for i := 0; i < 2*c.n; i++ {
			x := 0.0
			if i >= c.n && i%3 == 0 {
				x = volume()
			}
			step(x)
		}
		for i := 0; i < 2*c.n; i++ {
			step(volume())
		}
	}
}
