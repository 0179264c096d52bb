//go:build !amd64

package transport

// Never called: mat.UsesAVX2 is false off amd64.
func appendZ4AVX2(out []byte, z, rs []float64, mean, root, scale float64) bool {
	panic("transport: no AVX2 kernels on this GOARCH")
}

func sumsInto4AVX2(z []float64, b []byte, rs []float64, mean, scale float64) {
	panic("transport: no AVX2 kernels on this GOARCH")
}
