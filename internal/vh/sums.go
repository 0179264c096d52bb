package vh

import (
	"errors"
	"math"

	"streampca/internal/mat"
)

// SumsBound bounds every |Z′_k| + |μ·R′_k| of a column Sums recovers: far
// above any window of byte counts, and 3 bits below 2⁵³, where integers are
// exact floats, so the rounding that recovers Z′_k is exact.
const SumsBound = 1 << 50

// ErrNotSums is Sums' refusal: the column, or its mean, is not one of exact
// sums of whole-byte volumes within range.
var ErrNotSums = errors.New("vh: not the exact sums of whole-byte volumes within range")

// useAVX2 selects sumsAVX2; a variable so tests can run both paths.
var useAVX2 = mat.UsesAVX2()

// Sums writes into zs the projection sums Z′ that Centred gave the column z
// of mean μ over the row sums rs from: Z′_k = round(z_k·√l + μ·R′_k),
// rounding half to even, with l = len(z). It returns ErrNotSums, zs's
// contents unspecified, when a Centred(Z′_k, R′_k, μ) does not have z_k's bits or a
// |Z′_k| + |μ·R′_k| reaches SumsBound, past which two integers may give one
// z_k. Both ends of a pull recover the sums with it: transport's codec to
// send a column as its sums, and sketch.Applier to move a kept column on by
// a delta.
func Sums(zs, z, rs []float64, mean float64) error {
	l := len(z)
	zs, rs = zs[:l], rs[:l]
	root, scale := math.Sqrt(float64(l)), Scale(l)
	k0 := 0
	if useAVX2 {
		k0 = l &^ 3
		if !sumsAVX2(zs[:k0], z[:k0], rs[:k0], mean, root, scale) {
			return ErrNotSums
		}
	}
	for k := k0; k < l; k++ {
		// M + x − M rounds x half to even for |x| < 2⁵¹, M = 1.5·2⁵²;
		// past that the bound refuses the result.
		v, p := z[k], float64(mean*rs[k])
		zk := float64(v*root) + p + 0x1.8p52 - 0x1.8p52
		if !(math.Abs(zk)+math.Abs(p) < SumsBound) || math.Float64bits(scale*(zk-p)) != math.Float64bits(v) {
			return ErrNotSums
		}
		zs[k] = zk
	}
	return nil
}
