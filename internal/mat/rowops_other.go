//go:build !amd64

package mat

func haveAVX2() bool { return false }

// Never called: useAVX2 is false off amd64.
func addMulAVX2(o, x []float64, a float64)        { panic("mat: no AVX2 kernels on this GOARCH") }
func addMul2AVX2(o, x, y []float64, a, b float64) { panic("mat: no AVX2 kernels on this GOARCH") }
func subMul2AVX2(o, x, y []float64, a, b float64) { panic("mat: no AVX2 kernels on this GOARCH") }
