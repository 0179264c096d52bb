package vh

// sumsAVX2 is Sums over a multiple of four elements (sums_amd64.s).
//
//go:noescape
func sumsAVX2(zs, z, rs []float64, mean, root, scale float64) (ok bool)
