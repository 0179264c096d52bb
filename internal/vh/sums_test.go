package vh

import (
	"math"
	"math/rand"
	"testing"

	"streampca/internal/mat"
)

// TestSumsRecoversTheSums: for columns Centred from whole sums Z′ of a
// window of c′ byte counts over ±1 row sums R′, Sums gives Z′ back, and the
// AVX2 kernel agrees with the Go loop bit for bit at lengths 0 to 67 and
// four alignments; a column with an element an ulp off, or with a sum at
// 2⁵⁰ or past, is refused on both paths.
func TestSumsRecoversTheSums(t *testing.T) {
	defer func(have bool) { useAVX2 = have }(useAVX2)
	rng := rand.New(rand.NewSource(65))
	for n := 0; n <= 67; n++ {
		for off := range 4 {
			count := int64(1 + rng.Intn(60))
			sum := rng.Int63n(1<<40) - 1<<39
			mean, scale := Mean(float64(sum), count), Scale(n)
			z, rs := make([]float64, n+off), make([]float64, n+off)
			for k := range z {
				rs[k] = float64(count - 2*rng.Int63n(count+1))
				z[k] = float64(rng.Int63n(1<<44) - 1<<43)
			}
			bad := n > 0 && rng.Intn(3) == 0
			if bad && rng.Intn(2) == 0 {
				z[off+rng.Intn(n)] = float64(int64(1<<50+rng.Int63n(1<<51)) * (1 - 2*rng.Int63n(2)))
			}
			col := make([]float64, n+off)
			for k := range col {
				col[k] = Centred(z[k], rs[k], mean, scale)
			}
			if bad && rng.Intn(2) == 0 {
				k := off + rng.Intn(n)
				col[k] = math.Nextafter(col[k], math.Inf(1))
			}
			var paths []error
			for _, avx := range []bool{false, true} {
				if avx && !mat.UsesAVX2() {
					continue
				}
				useAVX2 = avx
				zs := make([]float64, n+off)
				err := Sums(zs[off:], col[off:], rs[off:], mean)
				paths = append(paths, err)
				if !bad && err != nil {
					t.Fatalf("avx=%v length %d offset %d: %v", avx, n, off, err)
				}
				for k := off; err == nil && k < n+off; k++ {
					// What Sums returns gives the column's bits, in range.
					if p := float64(mean * rs[k]); math.Float64bits(Centred(zs[k], rs[k], mean, scale)) != math.Float64bits(col[k]) ||
						zs[k] != math.Round(zs[k]) || !(math.Abs(zs[k])+math.Abs(p) < SumsBound) || !bad && zs[k] != z[k] {
						t.Fatalf("avx=%v length %d offset %d: Z′[%d] = %v from a column of Z′ = %v", avx, n, off, k, zs[k], z[k])
					}
				}
			}
			if len(paths) == 2 && (paths[0] == nil) != (paths[1] == nil) {
				t.Fatalf("length %d offset %d: the Go loop returns %v, the kernel %v", n, off, paths[0], paths[1])
			}
		}
	}
}
