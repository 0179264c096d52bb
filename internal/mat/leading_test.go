package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// clusterWidths are the relative widths clusteredSpectrum cycles its leading
// groups through: a forced tie, then clusters from 10⁻¹⁴ (inside rounding of
// forming A) up to 10⁻³ (LAPACK dstein's cluster boundary).
var clusterWidths = []float64{0, 1e-14, 1e-10, 1e-6, 1e-3}

// clusteredSpectrum returns a descending spectrum of n values and the
// [start, end) index ranges of its leading groups. Group g holds 2 or 3
// values spread over a relative width clusterWidths[(g+first)%5] below its
// top, and is separated from the group above by a relative gap of 10–60 %
// drawn from rng. The groups cover at most the leading 16 values and leave at
// least one below them; the rest are drawn from (−b/2, b/2), b the last
// group's bottom, so every group's distance to the rest of the spectrum is
// known.
func clusteredSpectrum(rng *rand.Rand, n, first int) (values []float64, groups [][2]int) {
	top := 100.0
	for g := 0; ; g++ {
		size := 2 + (g+first)%2
		if len(values)+size >= n || len(values)+size > 16 {
			break
		}
		width := clusterWidths[(g+first)%len(clusterWidths)]
		start := len(values)
		for i := 0; i < size; i++ {
			values = append(values, top*(1-width*float64(i)/float64(size-1)))
		}
		groups = append(groups, [2]int{start, len(values)})
		top = values[len(values)-1] * (0.4 + 0.5*rng.Float64())
	}
	bottom := 100.0
	if len(values) > 0 {
		bottom = values[len(values)-1]
	}
	tail := make([]float64, n-len(values))
	for i := range tail {
		tail[i] = bottom * (rng.Float64() - 0.5)
	}
	sortDescending(tail)
	return append(values, tail...), groups
}

func sortDescending(x []float64) {
	order := make([]int, len(x))
	descendingOrder(order, x)
	sorted := make([]float64, len(x))
	for j, i := range order {
		sorted[j] = x[i]
	}
	copy(x, sorted)
}

// checkClusters holds SymEigenLeading on a = Q·diag(values)·Qᵀ to the
// leading-vector contract, with ql = SymEigen(a) the reference and k the
// number of values the groups cover. With ε = 2⁻⁵², ‖A‖ the Frobenius norm
// and ν = max(n, 8):
//
//	the Values equal ql's bit for bit when a is irreducible;
//	Vector(j) is column j of Vectors(k) bit for bit;
//	‖VᵀV − I‖_F              ≤ 4·ν·ε;
//	‖A·v_j − λ_j·v_j‖         ≤ 2·ν·ε·‖A‖ for every j < k;
//	‖V_G·V_Gᵀ − W_G·W_Gᵀ‖_F  ≤ n·ε·‖A‖/gap_G for each group G, from n = 8,
//
// W_G being ql's vectors for G and gap_G G's distance to the rest of the
// prescribed spectrum: a whole cluster's projector is determined where its
// vectors are not. Below n = 8 rounding that does not grow with n dominates.
// Over 20 000 seeds for each n from 3 to 12, as a fraction of 4·n·ε, 2·n·ε·‖A‖
// and n·ε·‖A‖/gap, the worst orthonormality is 0.67, 0.58, 0.52, 0.52, 0.43
// at n = 3 … 7 (0.43 at 8, 0.30 at 12), the worst residual 0.93, 0.67, 0.72,
// 0.45, 0.45 (0.36, 0.28), and the worst projector 3.5, 2.0, 1.8, 0.64, 0.60
// (0.54, 0.47). There the reference is the weak side: SymEigen's own
// projector is up to 5.8, 4.0, 2.4, 1.1 and 0.90 times n·ε·‖A‖/gap from the
// exact one, so below n = 8 the projectors are not compared; the
// orthonormality and residual bounds, floored at ν, still hold there.
func checkClusters(t *testing.T, name string, a *Matrix, values []float64, groups [][2]int) {
	t.Helper()
	const eps = 0x1p-52
	n := a.Rows()
	nEps, norm := float64(max(n, 8))*eps, a.FrobeniusNorm()
	ql, err := SymEigen(a)
	if err != nil {
		t.Fatalf("%s: SymEigen: %v", name, err)
	}
	f, err := SymEigenLeading(a)
	if err != nil {
		t.Fatalf("%s: SymEigenLeading: %v", name, err)
	}
	if len(components(a, make([]int, n), make([]int, n), make([]int, n))) == 1 {
		for j, v := range f.Values {
			if math.Float64bits(v) != math.Float64bits(ql.Values[j]) {
				t.Fatalf("%s: λ_%d = %v, SymEigen's %v", name, j, v, ql.Values[j])
			}
		}
	}
	k := 0
	if len(groups) > 0 {
		k = groups[len(groups)-1][1]
	}
	v, err := f.Vectors(k)
	if err != nil {
		t.Fatalf("%s: Vectors(%d): %v", name, k, err)
	}
	for j := 0; j < k; j++ {
		u, err := f.Vector(j)
		if err != nil {
			t.Fatalf("%s: Vector(%d): %v", name, j, err)
		}
		for i, x := range u {
			if math.Float64bits(x) != math.Float64bits(v.At(i, j)) {
				t.Fatalf("%s: Vector(%d) differs from column %d of Vectors(%d) at %d", name, j, j, k, i)
			}
		}
		av, _ := a.MulVec(u)
		AddScaled(av, -f.Values[j], u)
		if r := Norm(av); r > 2*nEps*norm {
			t.Errorf("%s: ‖Av−λv‖ = %.3g > %.3g for λ_%d = %v", name, r, 2*nEps*norm, j, f.Values[j])
		}
	}
	vtv := v.Gram()
	for i := 0; i < k; i++ {
		vtv.data[i*k+i]--
	}
	if orth := vtv.FrobeniusNorm(); orth > 4*nEps {
		t.Errorf("%s: ‖VᵀV−I‖_F = %.3g > %.3g", name, orth, 4*nEps)
	}
	if n < 8 {
		return
	}
	for _, g := range groups {
		gap := math.Inf(1)
		if g[0] > 0 {
			gap = values[g[0]-1] - values[g[0]]
		}
		if g[1] < n {
			gap = math.Min(gap, values[g[1]-1]-values[g[1]])
		}
		diff := NewMatrix(n, n)
		for j := g[0]; j < g[1]; j++ {
			for r := 0; r < n; r++ {
				for c := 0; c < n; c++ {
					diff.data[r*n+c] += v.At(r, j)*v.At(c, j) - ql.Vectors.At(r, j)*ql.Vectors.At(c, j)
				}
			}
		}
		if d, tol := diff.FrobeniusNorm(), float64(n)*eps*norm/gap; d > tol {
			t.Errorf("%s: group %v (λ %v…%v): projector off SymEigen's by %.3g > %.3g (gap %.3g)",
				name, g, values[g[0]], values[g[1]-1], d, tol, gap)
		}
	}
}

// TestSymEigenLeadingClusters holds the leading factorization to
// checkClusters' bounds on prescribed spectra whose leading groups are forced
// ties and clusters of relative width 10⁻¹⁴ to 10⁻³, at the sizes the model
// build sees: n = 8, the deployed m = 81 and 144, and l = 100, on both
// row-update paths (onBothKernelPaths).
func TestSymEigenLeadingClusters(t *testing.T) {
	onBothKernelPaths(t, symEigenLeadingClusters)
}

func symEigenLeadingClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{8, 81, 100, 144} {
		for first := range clusterWidths {
			values, groups := clusteredSpectrum(rng, n, first)
			a, _ := rotated(t, rng, values)
			checkClusters(t, fmt.Sprintf("n=%d/first=%d", n, first), a, values, groups)
		}
	}
}

// FuzzSymEigenLeading differentially checks SymEigenLeading against SymEigen
// on fuzzer-chosen inputs: n ≤ 48, a clustered spectrum with forced ties
// (clusteredSpectrum, its widths starting where the fuzzer says) and a seeded
// orthogonal basis, held to checkClusters' bounds, the whole matrix scaled by
// 2^e for a fuzzer-chosen e in [−60, 60]; the scaled matrix must factor into
// the unscaled one's vectors bit for bit and its values times 2^e (see
// checkScaled). The seed corpus ends with an n = 3 input whose projector is
// 3.5 times n·ε·‖A‖/gap from SymEigen's, and five inputs that broke the
// bounds under LAPACK dstein's own rules (see EigenLeading.vectors): four
// whose three-member clusters of relative width 0 or 10⁻¹⁴ leaked under its
// stopping rule, one whose vectors of different clusters it left too far
// from orthogonal.
func FuzzSymEigenLeading(f *testing.F) {
	for _, seed := range []struct {
		seed  int64
		n     uint8
		first uint8
		exp   int8
	}{
		{1, 8, 0, 0}, {2, 48, 1, -60}, {3, 3, 2, 60}, {4, 17, 3, -27}, {5, 33, 4, 13}, {6, 1, 0, -1},
		{16254, 2, 4, 0}, {-43, 46, 4, 0}, {18279, 39, 0, 0}, {-13422, 34, 0, 0}, {-6264, 40, 4, 0}, {-57, 111, 73, 0},
	} {
		f.Add(seed.seed, seed.n, seed.first, seed.exp)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, first uint8, exp int8) {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + int(n)%48
		e := int(exp) % 61
		values, groups := clusteredSpectrum(rng, size, int(first)%len(clusterWidths))
		a, _ := rotated(t, rng, values)
		scaled := a.Clone()
		ScaleVec(scaled.data, math.Ldexp(1, e))
		for i := range values {
			values[i] = math.Ldexp(values[i], e)
		}
		name := fmt.Sprintf("seed=%d/n=%d/first=%d/e=%d", seed, size, first, e)
		checkClusters(t, name, scaled, values, groups)
		checkScaled(t, name, a, e)
	})
}

// checkScaled requires SymEigenLeading to factor 2^e·a into a's vectors bit
// for bit and a's values times 2^e: the model build reads the same basis
// whatever unit the volumes come in.
func checkScaled(t *testing.T, name string, a *Matrix, e int) {
	t.Helper()
	scaled := a.Clone()
	ScaleVec(scaled.data, math.Ldexp(1, e))
	want, err := SymEigenLeading(a)
	if err != nil {
		t.Fatalf("%s: SymEigenLeading: %v", name, err)
	}
	got, err := SymEigenLeading(scaled)
	if err != nil {
		t.Fatalf("%s: SymEigenLeading of the scaled matrix: %v", name, err)
	}
	for j, v := range want.Values {
		if w := math.Ldexp(v, e); math.Float64bits(got.Values[j]) != math.Float64bits(w) {
			t.Fatalf("%s: λ_%d = %v, want %v", name, j, got.Values[j], w)
		}
	}
	n := a.Rows()
	wv, err := want.Vectors(n)
	if err != nil {
		t.Fatalf("%s: Vectors(%d): %v", name, n, err)
	}
	gv, err := got.Vectors(n)
	if err != nil {
		t.Fatalf("%s: Vectors(%d) of the scaled matrix: %v", name, n, err)
	}
	for i, x := range gv.data {
		if math.Float64bits(x) != math.Float64bits(wv.data[i]) {
			t.Fatalf("%s: vector entry %d is %v, unscaled %v", name, i, x, wv.data[i])
		}
	}
}

// TestSymEigenLeadingAnyScale: the leading vectors of s·G, G the Gram of a
// seeded 100×81 Gaussian matrix, are found for s from 10⁻²⁰ to 10⁶ (the
// inverse iteration's growth test used to fail every step from s = 10⁻⁸
// down), equal G's within rounding, and equal them bit for bit when s is a
// power of two.
func TestSymEigenLeadingAnyScale(t *testing.T) {
	g := randomMatrix(rand.New(rand.NewSource(10)), 100, 81).Gram()
	ref, err := SymEigenLeading(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Vectors(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{1e-20, 1e-16, 1e-12, 1e-8, 1e-6, 1e-3, 1e3, 1e6} {
		a := g.Clone()
		ScaleVec(a.data, s)
		f, err := SymEigenLeading(a)
		if err != nil {
			t.Fatalf("s=%g: %v", s, err)
		}
		v, err := f.Vectors(6)
		if err != nil {
			t.Fatalf("s=%g: Vectors(6): %v", s, err)
		}
		for i, x := range v.data {
			if d := math.Abs(x - want.data[i]); d > 1e-9 {
				t.Fatalf("s=%g: vector entry %d is %v, unscaled %v", s, i, x, want.data[i])
			}
		}
	}
	for _, e := range []int{-70, -40, -27, -1, 1, 40, 70} {
		checkScaled(t, fmt.Sprintf("e=%d", e), g, e)
	}
}
