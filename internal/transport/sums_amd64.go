package transport

// The AVX2 kernels in sums_amd64.s, for columns of 4-byte sums: each takes a
// multiple of four elements, len(z).

//go:noescape
func appendZ4AVX2(out []byte, z, rs []float64, mean, root, scale float64) bool

//go:noescape
func sumsInto4AVX2(z []float64, b []byte, rs []float64, mean, scale float64)
