package mat

// useAVX2 routes addMul, addMul2, subMul2 and SlideSums — the row updates of
// the Gram (gramInto), the Householder reduction (tridiagonalize), TMulVecTo,
// AddScaled and the variance histograms' sketch sums — to their amd64 AVX2
// kernels (rowops_amd64.s). It is set once, at package init, from CPUID and
// XGETBV; only tests clear it, to run the Go loops on the same inputs. A
// kernel does per element what its loop does, four elements per instruction:
// every product rounded, then the adds in the loop's order, no fused
// multiply-add. So the two paths return the same bits.
//
// The Go loops write every product as float64(a * x[k]): the conversion
// forbids the compiler to fuse it into the add (it does on arm64), so the
// loops compute the same bits on every GOARCH. ci.sh fails when the arm64
// build attributes a fused instruction to this file.
var useAVX2 = haveAVX2()

// UsesAVX2 reports whether the kernels run the AVX2 assembly, for another
// package's kernels to follow the same rule.
func UsesAVX2() bool { return useAVX2 }

// minKernelLen is the shortest row the kernels take. On the benchmark's
// 2-vCPU Xeon host a call into the assembly costs about 5 ns before its first
// element and the Go loop about 1 ns an element, so below 8 elements the loop
// is the faster.
const minKernelLen = 8

// AddScaled computes dst += s·src in place over len(src) elements.
func AddScaled(dst []float64, s float64, src []float64) {
	addMul(dst[:len(src)], src, s)
}

// SlideSums moves a window's sketch sums on by one element — z, the sum of
// each element's value times its row, and r, the sum of the rows: for every
// k < len(z),
//
//	z[k] = (z[k] + a·x[k]) + b·y[k]
//	r[k] = (r[k] − x[k]) + y[k]
//
// where x is the leaving element's row and a its negated value, y and b the
// entering element's row and value. It is a variance histogram's steady-state
// update (internal/vh) in one pass instead of two.
func SlideSums(z, r, x, y []float64, a, b float64) {
	r, x, y = r[:len(z)], x[:len(z)], y[:len(z)]
	if useAVX2 && len(z) >= minKernelLen {
		slideSumsAVX2(z, r, x, y, a, b)
		return
	}
	for k := range z {
		z[k] = (z[k] + float64(a*x[k])) + float64(b*y[k])
		r[k] = (r[k] - x[k]) + y[k]
	}
}

// addMul sets o[k] += a·x[k] for every k < len(o).
func addMul(o, x []float64, a float64) {
	x = x[:len(o)]
	if useAVX2 && len(o) >= minKernelLen {
		addMulAVX2(o, x, a)
		return
	}
	for k := range o {
		o[k] += float64(a * x[k])
	}
}

// addMul2 sets o[k] += a·x[k] + b·y[k] for every k < len(o).
func addMul2(o, x, y []float64, a, b float64) {
	x, y = x[:len(o)], y[:len(o)]
	if useAVX2 && len(o) >= minKernelLen {
		addMul2AVX2(o, x, y, a, b)
		return
	}
	for k := range o {
		o[k] += float64(a*x[k]) + float64(b*y[k])
	}
}

// subMul2 sets o[k] -= a·x[k] + b·y[k] for every k < len(o).
func subMul2(o, x, y []float64, a, b float64) {
	x, y = x[:len(o)], y[:len(o)]
	if useAVX2 && len(o) >= minKernelLen {
		subMul2AVX2(o, x, y, a, b)
		return
	}
	for k := range o {
		o[k] -= float64(a*x[k]) + float64(b*y[k])
	}
}
