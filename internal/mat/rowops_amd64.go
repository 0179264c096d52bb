package mat

// The AVX2 kernels in rowops_amd64.s. Each reads its rows over len(o) (len(z)).

//go:noescape
func addMulAVX2(o, x []float64, a float64)

//go:noescape
func addMul2AVX2(o, x, y []float64, a, b float64)

//go:noescape
func subMul2AVX2(o, x, y []float64, a, b float64)

//go:noescape
func slideSumsAVX2(z, r, x, y []float64, a, b float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE, and XCR0's SSE and AVX bits).
func haveAVX2() bool {
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if maxLeaf < 7 || ecx1&osxsave == 0 || ecx1&avx == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
