package mat

import "math"

// Dot returns the inner product of a and b. The slices must have equal
// length; a mismatched call is a programming error and panics via the
// bounds check, so callers should validate shapes at their boundary.
func Dot(a, b []float64) float64 {
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Norm returns the Euclidean norm of v using scaled accumulation to avoid
// overflow and underflow.
func Norm(v []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// ScaleVec multiplies v by s in place.
func ScaleVec(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Normalize scales v to unit Euclidean norm in place and returns the
// original norm. A zero vector is left untouched and 0 is returned.
func Normalize(v []float64) float64 {
	n := Norm(v)
	if n == 0 {
		return 0
	}
	ScaleVec(v, 1/n)
	return n
}

// VecIsFinite reports whether every element of v is finite.
func VecIsFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
