package vh

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	_ "unsafe" // go:linkname

	"streampca/internal/randproj"
)

// matUseAVX2 is internal/mat's switch between its AVX2 row kernels and the Go
// loops they replace.
//
//go:linkname matUseAVX2 streampca/internal/mat.useAVX2
var matUseAVX2 bool

// reference is what a histogram is checked against: the updates still in its
// window, each with its row read off the generator, never off the ring under
// test.
type reference struct {
	n    int
	g    *randproj.Generator // nil without a sketch
	ts   []int64
	xs   []float64
	rows [][]float64
	// Scratch for sums and checkExact.
	z, r, sk []float64
}

// push records the update (t, x) and drops what left the window.
func (w *reference) push(t int64, x float64) {
	w.ts, w.xs = append(w.ts, t), append(w.xs, x)
	if w.g != nil {
		row := make([]float64, w.g.SketchLen())
		w.g.RowInto(t, row)
		w.rows = append(w.rows, row)
	}
	cut := 0
	for cut < len(w.ts) && w.ts[cut] <= t-int64(w.n) {
		cut++
	}
	w.ts, w.xs = w.ts[cut:], w.xs[cut:]
	if w.g != nil {
		w.rows = w.rows[cut:]
	}
}

// sums adds up afresh, oldest first, the count, volume sum and sketch sums
// Z, R of the window's first c elements into w's scratch; add adds the next.
func (w *reference) sums(c int) (count int64, sum float64) {
	if w.g != nil && w.z == nil {
		w.z, w.r = make([]float64, w.g.SketchLen()), make([]float64, w.g.SketchLen())
	}
	clear(w.z)
	clear(w.r)
	for i := range c {
		count, sum = w.add(i, count, sum)
	}
	return count, sum
}

func (w *reference) add(i int, count int64, sum float64) (int64, float64) {
	x := w.xs[i]
	if w.g != nil {
		for k, rk := range w.rows[i] {
			w.z[k] += x * rk
			w.r[k] += rk
		}
	}
	return count + 1, sum + x
}

// checkExact requires h's totals to be the fresh sums over w's window bit for
// bit, and EstimateMean, Sketch and PriorSketchInto to be Mean and Centred of
// those sums, over the window and over it without its newest element.
func checkExact(t testing.TB, h *Histogram, w *reference) {
	what, k, got, want := exactMismatch(h, w)
	if what != "" {
		t.Helper()
		t.Fatalf("t=%d: %s[%d] is %v (%#x), a fresh sum gives %v (%#x)",
			h.now, what, k, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// exactMismatch returns the first value checkExact finds off its fresh sum,
// or "" when there is none.
func exactMismatch(h *Histogram, w *reference) (what string, k int, got, want float64) {
	differ := func(a, b float64) bool { return math.Float64bits(a) != math.Float64bits(b) }
	count, sum := w.sums(len(w.xs) - 1)
	mean := Mean(sum, count)
	var scale float64
	if w.g != nil {
		scale = Scale(w.g.SketchLen())
		var priorMean float64
		w.sk, priorMean = h.PriorSketchInto(w.sk)
		if differ(priorMean, mean) {
			return "PriorSketchInto mean", 0, priorMean, mean
		}
		for k := range w.z {
			if want := Centred(w.z[k], w.r[k], mean, scale); differ(w.sk[k], want) {
				return "PriorSketchInto", k, w.sk[k], want
			}
		}
	}
	count, sum = w.add(len(w.xs)-1, count, sum)
	mean = Mean(sum, count)
	switch {
	case h.Count() != count:
		return "Count()", 0, float64(h.Count()), float64(count)
	case differ(h.totalSum, sum):
		return "totalSum", 0, h.totalSum, sum
	case differ(h.EstimateMean(), mean):
		return "EstimateMean()", 0, h.EstimateMean(), mean
	case w.g == nil:
		return "", 0, 0, 0
	}
	w.sk = h.SketchInto(w.sk)
	for k := range w.z {
		switch want := Centred(w.z[k], w.r[k], mean, scale); {
		case differ(h.totalZ[k], w.z[k]):
			return "totalZ", k, h.totalZ[k], w.z[k]
		case differ(h.totalR[k], w.r[k]):
			return "totalR", k, h.totalR[k], w.r[k]
		case differ(w.sk[k], want):
			return "Sketch()", k, w.sk[k], want
		}
	}
	return "", 0, 0, 0
}

// stateOf is every field an update may change, floats as their bits.
func stateOf(h *Histogram) []uint64 {
	s := []uint64{uint64(h.newest), uint64(h.since), uint64(h.now), uint64(h.totalCount), math.Float64bits(h.totalSum)}
	if h.started {
		s = append(s, 1)
	}
	for _, xs := range [][]float64{h.window, h.totalZ, h.totalR} {
		for _, x := range xs {
			s = append(s, math.Float64bits(x))
		}
	}
	return s
}

// exactRun is a histogram beside its reference.
type exactRun struct {
	h  *Histogram
	w  *reference
	ti int64
}

func newExactRun(t testing.TB, n, l int) *exactRun {
	t.Helper()
	cfg := Config{WindowLen: n}
	w := &reference{n: n}
	if l > 0 {
		w.g, cfg.Gen = newGenRing(t, 5, l, n)
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &exactRun{h: h, w: w}
}

// step updates at the time gap intervals after the last one and checks the
// result.
func (e *exactRun) step(t testing.TB, gap int64, x float64) {
	e.ti += gap
	if err := e.h.Update(e.ti, x); err != nil {
		t.Helper()
		t.Fatalf("update t=%d: %v", e.ti, err)
	}
	e.w.push(e.ti, x)
	checkExact(t, e.h, e.w)
}

// TestOnePassMatchesThePasses holds the steady step's one mat.SlideSums pass
// (one element out, one in) and the expiry and insertion passes of the other
// steps to the reference's fresh passes over the window, bit for bit, after
// every update (checkExact), on both of mat's row-update paths. The stream
// has steady updates; gaps of exactly n + 1 between the element leaving and
// the one entering (both rows in one ring slot), random gaps and gaps past
// 3n; and zero volumes against the rows' −1 entries (−0 products), at the
// deployed monitor's point and with rows shorter than the kernels take.
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
			for _, c := range []struct{ n, l int }{
				{144, 100}, // flat-* and fed-wide
				{144, 7},   // rows the kernels leave to the Go loops
			} {
				gapsAndZeros(t, newExactRun(t, c.n, c.l), c.n)
			}
		})
	}
}

// TestTotalsBoundEveryStep runs six phases of 1 024 updates that alternate
// unit and 2⁴⁰-magnitude volumes, once at steady times and once with random
// gaps and a jump of n/2 every 777 updates, and checks after every update
// that the totals stay within their bound of a fresh sum over the window.
// With whole-byte volumes that bound is zero: checkExact, bit for bit.
func TestTotalsBoundEveryStep(t *testing.T) {
	const n, l, phase = 256, 4, 1024
	for _, gaps := range []bool{false, true} {
		e := newExactRun(t, n, l)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 6*phase; i++ {
			x := 1 + float64(rng.Intn(2))
			if (i/phase)%2 == 1 {
				x = math.Round((1 + rng.Float64()) * (1 << 40))
			}
			gap := int64(1)
			if gaps {
				gap += int64(rng.Intn(3))
				if i%777 == 776 {
					gap += n / 2
				}
			}
			e.step(t, gap, x)
		}
	}
}

// TestTotalsExactEveryStep holds the totals to a fresh sum over the window,
// bit for bit, after every update (checkExact) of a long run: 10⁶ updates
// alternating phases of 2⁴⁰-magnitude and unit volumes, where what a window
// of the former left behind would dwarf the latter.
func TestTotalsExactEveryStep(t *testing.T) {
	t.Run("long-run", func(t *testing.T) {
		const n, l, phase, updates = 32, 4, 1024, 1_000_000
		e := newExactRun(t, n, l)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < updates; i++ {
			x := 1 + float64(rng.Intn(2))
			if (i/phase)%2 == 1 {
				x = math.Round((1 + rng.Float64()) * (1 << 40))
			}
			e.step(t, 1, x)
		}
		if (updates-1)/phase%2 != 0 {
			t.Fatal("the run must end in a unit-volume phase")
		}
	})
}

func gapsAndZeros(t *testing.T, e *exactRun, n int) {
	rng := rand.New(rand.NewSource(49))
	volume := func() float64 { return math.Round(1e6 * rng.Float64()) }
	for i := 0; i < 3*n; i++ {
		e.step(t, 1, volume())
	}
	// Skip s+1 and s+n: at s+n+1 only element s leaves, and its row and the
	// new one share slot s mod (n+1).
	for phase := 0; phase < 6; phase++ {
		for i := 0; i < 1+17*phase; i++ {
			e.step(t, 1, volume())
		}
		e.step(t, 2, volume())
		for i := 0; i < n-3; i++ {
			e.step(t, 1, volume())
		}
		e.step(t, 2, volume())
	}
	for i := 0; i < 2*n; i++ {
		e.step(t, 1+int64(rng.Intn(3)), volume())
	}
	e.step(t, 3*int64(n)+7, volume())
	// Zero volumes, alone and between others.
	for i := 0; i < 2*n; i++ {
		x := 0.0
		if i >= n && i%3 == 0 {
			x = volume()
		}
		e.step(t, 1, x)
	}
}

// TestUpdateRefusesInexactVolumes: NaN, ±Inf, a fraction, or a volume x with
// |x|·n ≥ 2⁵³ is ErrVolume, from CheckVolume and from Update, and leaves the
// histogram as it was; the largest volume on either side of the bound goes in.
func TestUpdateRefusesInexactVolumes(t *testing.T) {
	const n = 10
	largest := math.Floor((1<<53 - 1) / n) // (2⁵³−1)/10 is no integer
	e := newExactRun(t, n, 8)
	for i := 0; i < 2*n; i++ {
		e.step(t, 1, float64(100*i))
	}
	for _, x := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0.5, -2.25, 1e6 + 1e-3,
		largest + 1, -(largest + 1), 1 << 53, math.MaxFloat64,
	} {
		if err := CheckVolume(x, n); !errors.Is(err, ErrVolume) {
			t.Fatalf("CheckVolume(%v, %d) = %v, want ErrVolume", x, n, err)
		}
		before := stateOf(e.h)
		if err := e.h.Update(e.ti+1, x); !errors.Is(err, ErrVolume) {
			t.Fatalf("Update(%v) = %v, want ErrVolume", x, err)
		}
		if !slices.Equal(stateOf(e.h), before) {
			t.Fatalf("Update(%v) was refused but changed the histogram", x)
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), largest, -largest, largest} {
		e.step(t, 1, x)
	}
}
