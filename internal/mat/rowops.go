package mat

// useAVX2 routes addMul, addMul2 and subMul2 — the row updates of the Gram
// (gramInto), the Householder reduction (tridiagonalize) and TMulVecTo — to
// their amd64 AVX2 kernels (rowops_amd64.s). It is set once, at package init,
// from CPUID and XGETBV; only tests clear it, to run the Go loops on the same
// inputs. A kernel does per element what its loop does, four elements per
// instruction: both products rounded, then the adds in the loop's order, no
// fused multiply-add. So the two paths return the same bits.
var useAVX2 = haveAVX2()

// minKernelLen is the shortest row the kernels take. On the benchmark's
// 2-vCPU Xeon host a call into the assembly costs about 5 ns before its first
// element and the Go loop about 1 ns an element, so below 8 elements the loop
// is the faster.
const minKernelLen = 8

// addMul sets o[k] += a·x[k] for every k < len(o).
func addMul(o, x []float64, a float64) {
	x = x[:len(o)]
	if useAVX2 && len(o) >= minKernelLen {
		addMulAVX2(o, x, a)
		return
	}
	for k := range o {
		o[k] += a * x[k]
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
		o[k] += a*x[k] + b*y[k]
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
		o[k] -= a*x[k] + b*y[k]
	}
}
