//go:build !amd64

package transport

// Never called: mat.UsesAVX2 is false off amd64.
func residualsAVX2(out []byte, zs, rs []float64, mean float64) (acc uint64) {
	panic("transport: no AVX2 kernels on this GOARCH")
}

func packAVX2(b []byte, n, w int) {
	panic("transport: no AVX2 kernels on this GOARCH")
}

func sumsIntoAVX2(z []float64, b []byte, rs []float64, mean, scale float64, w int) {
	panic("transport: no AVX2 kernels on this GOARCH")
}
