package mat

import (
	"math"
	"math/rand"
	"testing"
)

// onBothKernelPaths runs f once per row-update path as a subtest: "avx2" with
// the assembly kernels, where this CPU has them, and "go" with the Go loops.
// The switch is package state, so neither f nor its caller may run parallel.
func onBothKernelPaths(t *testing.T, f func(t *testing.T)) {
	have := useAVX2
	defer func() { useAVX2 = have }()
	for _, p := range []struct {
		name string
		avx  bool
	}{{"avx2", true}, {"go", false}} {
		t.Run(p.name, func(t *testing.T) {
			if p.avx && !have {
				t.Skip("no AVX2 kernels on this CPU")
			}
			useAVX2 = p.avx
			f(t)
		})
	}
}

// kernelValue returns an operand that stresses the rounding of a product and
// of a sum: signed zeros, subnormals, magnitudes whose products overflow or
// flush to subnormals, and full-mantissa normals, for which a fused
// multiply-add would round differently.
func kernelValue(rng *rand.Rand) float64 {
	x := rng.NormFloat64()
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, x)
	case 1:
		return x * 0x1p-1060 // subnormal
	case 2:
		return x * 1e300
	case 3:
		return x * 1e-300
	case 4:
		return x * 0x1p-1022 // near the smallest normal
	default:
		return x
	}
}

// TestRowKernelsMatchGoLoops calls each AVX2 row kernel directly and the Go
// loop it replaces on every length 0…67 (the rows shorter than minKernelLen,
// which the dispatch keeps in Go, included), in the shapes gramInto and
// tridiagonalize use: o a row's tail at every alignment, x and y the
// same-offset tails of other rows. Every element of the backing arrays, the
// ones past len(o) included, must come back with the same bits.
func TestRowKernelsMatchGoLoops(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernels on this CPU")
	}
	defer func() { useAVX2 = true }()
	rng := rand.New(rand.NewSource(48))
	const width = 67 + 4
	kernels := []struct {
		name         string
		kernel, loop func(o, x, y []float64, a, b float64)
	}{
		{"addMul",
			func(o, x, _ []float64, a, _ float64) { addMulAVX2(o, x[:len(o)], a) },
			func(o, x, _ []float64, a, _ float64) { addMul(o, x, a) }},
		{"addMul2", func(o, x, y []float64, a, b float64) { addMul2AVX2(o, x[:len(o)], y[:len(o)], a, b) }, addMul2},
		{"subMul2", func(o, x, y []float64, a, b float64) { subMul2AVX2(o, x[:len(o)], y[:len(o)], a, b) }, subMul2},
	}
	fill := func(s []float64) {
		for i := range s {
			s[i] = kernelValue(rng)
		}
	}
	o, x, y := make([]float64, width+4), make([]float64, width), make([]float64, width)
	want, got := make([]float64, len(o)), make([]float64, len(o))
	useAVX2 = false
	for _, k := range kernels {
		for n := 0; n <= 67; n++ {
			for trial := 0; trial < 24; trial++ {
				fill(o)
				fill(x)
				fill(y)
				a, b := kernelValue(rng), kernelValue(rng)
				// gramInto: row a's tail of the Gram against the rows' tails
				// from a; tridiagonalize: e and d from the same index as z's row.
				off := width - n
				if trial%2 == 1 {
					off = trial / 2 % 4
				}
				copy(want, o)
				copy(got, o)
				k.loop(want[off:off+n], x[off:], y[off:], a, b)
				k.kernel(got[off:off+n], x[off:], y[off:], a, b)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s len %d at offset %d, a=%v b=%v: element %d is %v (%#x), Go loop %v (%#x)",
							k.name, n, off, a, b, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}
