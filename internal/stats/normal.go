// Package stats provides the statistical substrate for the streaming-PCA
// detector: the standard-normal quantile, the Jackson–Mudholkar
// Q-statistic used to threshold the squared prediction error, and small
// descriptive-statistics helpers.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by the package.
var (
	// ErrProbRange indicates a probability outside (0, 1).
	ErrProbRange = errors.New("stats: probability out of (0,1)")
	// ErrBadInput indicates structurally invalid input (empty data, bad rank, …).
	ErrBadInput = errors.New("stats: invalid input")
)

// Wichura's AS241 (PPND16) coefficients, lowest power first: a/b are the
// central branch's numerator and denominator in r = 0.180625 − q², c/d the
// tail's for r = √(−ln min(p, 1 − p)) ≤ 5 (in r − 1.6), e/f the far tail's
// (in r − 5).
var (
	as241A = [8]float64{3.3871328727963666080e0, 1.3314166789178437745e+2, 1.9715909503065514427e+3, 1.3731693765509461125e+4,
		4.5921953931549871457e+4, 6.7265770927008700853e+4, 3.3430575583588128105e+4, 2.5090809287301226727e+3}
	as241B = [8]float64{1, 4.2313330701600911252e+1, 6.8718700749205790830e+2, 5.3941960214247511077e+3,
		2.1213794301586595867e+4, 3.9307895800092710610e+4, 2.8729085735721942674e+4, 5.2264952788528545610e+3}
	as241C = [8]float64{1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0, 3.64784832476320460504e0,
		1.27045825245236838258e0, 2.41780725177450611770e-1, 2.27238449892691845833e-2, 7.74545014278341407640e-4}
	as241D = [8]float64{1, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
		1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4, 1.05075007164441684324e-9}
	as241E = [8]float64{6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0, 2.96560571828504891230e-1,
		2.65321895265761230930e-2, 1.24266094738807843860e-3, 2.71155556874348757815e-5, 2.01033439929228813265e-7}
	as241F = [8]float64{1, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
		7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7, 2.04426310338993978564e-15}
)

// NormalQuantile returns the standard normal quantile z_p with
// P(Z ≤ z_p) = p, by Wichura's AS241 (Applied Statistics 37, 1988): a ratio
// of two degree-7 polynomials, accurate to about 1e-16 relative over (0, 1).
// The central branch is pure arithmetic; the tails take one math.Log. The
// result is odd about p = ½ bit for bit wherever 1 − p is exact, and no
// product is fused into an add (see horner), so it is the same on every
// amd64 CPU.
func NormalQuantile(p float64) (float64, error) {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("%w: p = %v", ErrProbRange, p)
	}
	q := p - 0.5
	if math.Abs(q) <= 0.425 {
		r := 0.180625 - float64(q*q)
		num, den := horner(&as241A, &as241B, r)
		return float64(q*num) / den, nil
	}
	r := math.Sqrt(-math.Log(math.Min(p, 1-p)))
	n, d, s := &as241C, &as241D, r-1.6
	if r > 5 {
		n, d, s = &as241E, &as241F, r-5
	}
	num, den := horner(n, d, s)
	x := num / den
	if q < 0 {
		x = -x
	}
	return x, nil
}

// horner evaluates at r the degree-7 polynomials whose coefficients, lowest
// power first, are n and d: from the top coefficient down, the two chains side
// by side so they overlap. Each product is written float64(x*r) so no compiler
// fuses it into the add (the arm64 one does otherwise; ci.sh checks this
// file's arm64 listing).
func horner(n, d *[8]float64, r float64) (num, den float64) {
	num, den = n[7], d[7]
	for i := 6; i >= 0; i-- {
		num = float64(num*r) + n[i]
		den = float64(den*r) + d[i]
	}
	return num, den
}

// UpperQuantile returns z with P(Z > z) = alpha, i.e. the (1−alpha) quantile.
// This is the c_α used by the Jackson–Mudholkar threshold.
func UpperQuantile(alpha float64) (float64, error) {
	q, err := NormalQuantile(1 - alpha)
	if err != nil {
		return 0, fmt.Errorf("upper quantile: %w", err)
	}
	return q, nil
}
