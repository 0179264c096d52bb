package transport

// The AVX2 kernels in sums_amd64.s: each takes a multiple of four elements,
// len(z) or n, packAVX2 a width w of 1 to 3 and sumsIntoAVX2 one of 1 to 4.

//go:noescape
func residualsAVX2(out []byte, z, rs []float64, mean, root, scale float64) (acc uint64, ok bool)

//go:noescape
func packAVX2(b []byte, n, w int)

//go:noescape
func sumsIntoAVX2(z []float64, b []byte, rs []float64, mean, scale float64, w int)
