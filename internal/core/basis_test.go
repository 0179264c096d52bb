package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	_ "unsafe" // go:linkname

	"streampca/internal/mat"
	"streampca/internal/sketch"
	"streampca/internal/stats"
)

// fullBuild is a model build that keeps every component, the shape the
// detector built before it kept only the leading basis: the spectrum, all
// realLen eigenvectors as columns of an m×m matrix and the m×m covariance
// they decompose.
type fullBuild struct {
	sv      []float64
	realLen int
	v       *mat.Matrix
	cov     *mat.Matrix
}

// fullRandProj decomposes the fetch's sketch Gram with the all-pairs
// mat.SymEigen.
func fullRandProj(t *testing.T, f Fetch, l int) fullBuild {
	t.Helper()
	z, err := AssembleSketchMatrix(f.Sketches, l)
	if err != nil {
		t.Fatal(err)
	}
	g := z.Gram()
	eig, err := mat.SymEigen(g)
	if err != nil {
		t.Fatal(err)
	}
	sv := make([]float64, len(eig.Values))
	for j, lam := range eig.Values {
		sv[j] = math.Sqrt(math.Max(lam, 0))
	}
	return fullBuild{sv: sv, realLen: len(sv), v: eig.Vectors, cov: g}
}

// fullFD scatters every FD block's small-side singular pairs into m×m and
// every block's BᵀB into the covariance. It shares RebuildFD's solver on
// purpose: it is the reference for the model's assembly, not for the
// eigensolve.
func fullFD(t *testing.T, f Fetch, m int) fullBuild {
	t.Helper()
	type pair struct {
		s   float64
		vec []float64
	}
	var pairs []pair
	cov := mat.NewMatrix(m, m)
	for _, b := range f.Blocks {
		rows, err := mat.NewMatrixFromRows(b.FDRows)
		if err != nil {
			t.Fatal(err)
		}
		btb := rows.Gram()
		for i, a := range b.FlowIDs {
			for k, c := range b.FlowIDs {
				cov.Set(a, c, btb.At(i, k))
			}
		}
		eig, err := mat.SymEigen(rows.T().Gram())
		if err != nil {
			t.Fatal(err)
		}
		for k, lam := range eig.Values {
			if lam <= 0 {
				break
			}
			s := math.Sqrt(lam)
			local, err := rows.TMulVec(column(eig.Vectors, k))
			if err != nil {
				t.Fatal(err)
			}
			vec := make([]float64, m)
			for i, id := range b.FlowIDs {
				vec[id] = local[i] / s
			}
			pairs = append(pairs, pair{s, vec})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].s > pairs[j].s })
	fb := fullBuild{sv: make([]float64, m), realLen: min(len(pairs), m), v: mat.NewMatrix(m, m), cov: cov}
	for j := 0; j < fb.realLen; j++ {
		fb.sv[j] = pairs[j].s
		for i, x := range pairs[j].vec {
			fb.v.Set(i, j, x)
		}
	}
	return fb
}

func column(a *mat.Matrix, j int) []float64 {
	c := make([]float64, a.Rows())
	if err := a.ColInto(j, c); err != nil {
		panic(err)
	}
	return c
}

// rank applies the detector's rank rule to the full build's spectrum.
func (fb fullBuild) rank(cfg DetectorConfig) int {
	sv := fb.sv[:fb.realLen]
	if cfg.EnergyFrac == 0 {
		return cfg.FixedRank
	}
	var total, acc float64
	for _, s := range sv {
		total += s * s
	}
	for j, s := range sv {
		acc += s * s
		if acc >= cfg.EnergyFrac*total {
			return j + 1
		}
	}
	return len(sv)
}

// culprits returns the identified flows as a sorted set.
func culprits(id *Identification) []int {
	var flows []int
	for _, f := range id.Flows {
		flows = append(flows, f.Flow)
	}
	sort.Ints(flows)
	return flows
}

// TestLeadingBasisMatchesFullSolve is the differential test of the model
// build against one that keeps every component — the all-pairs mat.SymEigen
// of the m×m sketch Gram for randproj, every block pair for FD — and applies
// the rank rule and threshold to that, for both rank rules of both families.
// Rank and ThresholdCapped must be equal, identified culprit sets identical
// (and empty when the rank rule passes all m components: the distance is then
// 0 and nothing is left to identify in) and the Gram of Sketch the covariance
// the reference decomposed.
//
// Where the build solves the same Gram (l ≥ m, FD, and sketches
// rank-deficient at the cut) spectrum and threshold agree bit for bit and
// distances within 1e-12 relative. Where it solves the l×l ẐẐᵀ instead,
// λ̂²_j past l is exactly zero, every λ̂²_j is within 4·m·2⁻⁵²·λ̂²_1 of the
// reference's (the eigenvalue error of either solve is of that order), the
// threshold within 1e-12 relative and distances within 1e-9.
//
// The m×m cases, whose bits are pinned, run a second time on mat's Go loops in
// place of its AVX2 row kernels (mat.useAVX2, rowops.go).
func TestLeadingBasisMatchesFullSolve(t *testing.T) {
	have := matUseAVX2
	defer func() { matUseAVX2 = have }()
	t.Run("default", func(t *testing.T) { leadingBasisMatchesFullSolve(t, false) })
	t.Run("go-loops", func(t *testing.T) {
		matUseAVX2 = false
		leadingBasisMatchesFullSolve(t, true)
	})
}

// matUseAVX2 is internal/mat's switch between its AVX2 row kernels and the Go
// loops they replace.
//
//go:linkname matUseAVX2 streampca/internal/mat.useAVX2
var matUseAVX2 bool

func leadingBasisMatchesFullSolve(t *testing.T, mxmOnly bool) {
	const n, k = 300, 3
	rp := []sketch.Family{sketch.FamilyRandProj}
	both := []sketch.Family{sketch.FamilyRandProj, sketch.FamilyFD}
	// An energy fraction of 0 is the fixed rank.
	all := []float64{0, 0.9}
	for _, c := range []struct {
		m, l, fixedRank int
		families        []sketch.Family
		energies        []float64
		// spiky: one spiked interval in the stream.
		spiky bool
		// smallSide: the randproj build must take the l×l side.
		smallSide bool
	}{
		{24, 32, 4, both, all, false, false},
		{48, 32, 4, both, all, true, true},
		// A fixed rank above l, which the l×l side cannot hold.
		{48, 4, 6, rp, []float64{0}, false, false},
	} {
		m, l := c.m, c.l
		rng := rand.New(rand.NewSource(30))
		x := lowRankStream(rng, n, m, k, 2)
		if c.spiky {
			x.Set(n/2, 7, x.At(n/2, 7)+400)
		}
		for _, family := range c.families {
			for _, energy := range c.energies {
				smallSide := c.smallSide && family == sketch.FamilyRandProj
				if mxmOnly && smallSide {
					continue
				}
				name := fmt.Sprintf("m=%d/l=%d/%v/energy=%v", m, l, family, energy)
				sketchLen := l
				if family == sketch.FamilyFD {
					sketchLen = 0
				}
				_, fetch, p := striped(t, Params{Family: family, NumFlows: m, WindowLen: n, SketchLen: sketchLen, Seed: 5}, 3, x)
				det, err := NewDetector(DetectorConfig{NumFlows: m, WindowLen: n, SketchLen: p.SketchLen, Alpha: 0.01,
					Family: family, EnergyFrac: energy, FixedRank: c.fixedRank})
				if err != nil {
					t.Fatal(err)
				}
				f, err := fetch()
				if err != nil {
					t.Fatal(err)
				}
				if err := det.Rebuild(f); err != nil {
					t.Fatal(err)
				}
				got := det.Model()

				var full fullBuild
				if family == sketch.FamilyFD {
					full = fullFD(t, f, m)
				} else {
					full = fullRandProj(t, f, l)
				}
				rank := full.rank(det.cfg)
				threshold, capped, err := stats.QStatisticCapped(full.sv[:full.realLen], n, rank, 0.01)
				if err != nil {
					t.Fatalf("%s: reference threshold: %v", name, err)
				}
				if got.Rank != rank || got.Components.Cols() != rank || got.Components.Rows() != m {
					t.Fatalf("%s: rank %d, basis %dx%d; reference rank %d", name,
						got.Rank, got.Components.Rows(), got.Components.Cols(), rank)
				}
				if got.ThresholdCapped != capped || got.ThresholdUnavailable {
					t.Fatalf("%s: capped %d (unavailable %v), reference capped %d", name,
						got.ThresholdCapped, got.ThresholdUnavailable, capped)
				}
				distTol := 1e-12
				if smallSide {
					distTol = 1e-9
					if math.Abs(got.Threshold-threshold) > 1e-12*threshold {
						t.Fatalf("%s: threshold %v, reference %v", name, got.Threshold, threshold)
					}
					top := full.sv[0] * full.sv[0]
					for j, s := range full.sv {
						g := got.Singular[j]
						if j >= l && g != 0 {
							t.Fatalf("%s: λ̂_%d = %v past l, want exactly 0", name, j, g)
						}
						if math.Abs(g*g-s*s) > 4*float64(m)*0x1p-52*top {
							t.Fatalf("%s: λ̂²_%d = %v, reference %v", name, j, g*g, s*s)
						}
					}
				} else {
					if math.Float64bits(got.Threshold) != math.Float64bits(threshold) {
						t.Fatalf("%s: threshold %v, reference %v", name, got.Threshold, threshold)
					}
					for j, s := range full.sv {
						if math.Float64bits(got.Singular[j]) != math.Float64bits(s) {
							t.Fatalf("%s: λ̂_%d = %v, reference %v", name, j, got.Singular[j], s)
						}
					}
				}
				// FD stacks its blocks' rows, so the pairing of rows in the Gram
				// kernel, and with it the rounding, may differ from per-block BᵀB.
				covTol := 0.0
				if family == sketch.FamilyFD {
					covTol = 1e-12 * full.cov.MaxAbs()
				}
				if got.Sketch.Cols() != m || !got.Sketch.Gram().Equal(full.cov, covTol) {
					t.Fatalf("%s: Sketch's Gram is not the covariance the reference decomposed", name)
				}

				basis := mat.NewMatrix(m, rank)
				for i := 0; i < m; i++ {
					copy(basis.RowView(i), full.v.RowView(i)[:rank])
				}
				ref := &Detector{cfg: det.cfg, model: &Model{
					Components: basis, Singular: full.sv, Means: got.Means,
					Rank: rank, Threshold: threshold, ThresholdCapped: capped,
				}}
				for i := 0; i < 100; i++ {
					y := x.Row(rng.Intn(n))
					y[rng.Intn(m)] += 200 * rng.NormFloat64()
					dGot, err := det.Distance(y)
					if err != nil {
						t.Fatal(err)
					}
					dRef, err := ref.Distance(y)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(dGot-dRef) > distTol*dRef {
						t.Fatalf("%s: distance %v, reference %v", name, dGot, dRef)
					}
					if i%10 != 0 {
						continue
					}
					y[(i/10)%m] += 500
					idGot, err := det.Identify(y, 0)
					if err != nil {
						t.Fatal(err)
					}
					idRef, err := ref.Identify(y, 0)
					if err != nil {
						t.Fatal(err)
					}
					// At rank m no anomalous subspace is left to identify in.
					if a, b := culprits(idGot), culprits(idRef); (len(a) == 0) != (rank == m) || fmt.Sprint(a) != fmt.Sprint(b) {
						t.Fatalf("%s: identified %v, reference %v", name, a, b)
					}
				}
			}
		}
	}
}
