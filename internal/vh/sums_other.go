//go:build !amd64

package vh

// Never called: mat.UsesAVX2 is false off amd64.
func sumsAVX2(zs, z, rs []float64, mean, root, scale float64) (ok bool) {
	panic("vh: no AVX2 kernels on this GOARCH")
}
