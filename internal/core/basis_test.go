package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"streampca/internal/mat"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
	"streampca/internal/stats"
)

// fullBuild is a model build that keeps every component, the shape the
// detector built before it kept only the leading basis: the spectrum, all
// realLen eigenvectors as columns of an m×m matrix and the covariance they
// decompose.
type fullBuild struct {
	sv      []float64
	realLen int
	v       *mat.Matrix
	cov     *mat.Matrix
}

// fullRandProj decomposes the fetch's sketch Gram with the all-pairs
// mat.SymEigen.
func fullRandProj(t *testing.T, f Fetch, l int) (fullBuild, *mat.Matrix) {
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
	return fullBuild{sv: sv, realLen: len(sv), v: eig.Vectors, cov: g}, z
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

// rank applies mode's rule to the full build the way the detector used to:
// 3σ projects the sketch matrix z on the full build's columns.
func (fb fullBuild) rank(t *testing.T, cfg DetectorConfig, z *mat.Matrix) int {
	t.Helper()
	sv := fb.sv[:fb.realLen]
	switch cfg.Mode {
	case RankEnergy:
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
	case RankThreeSigma:
		l := z.Rows()
		for j, s := range sv {
			if s == 0 {
				return j
			}
			proj, err := z.MulVec(column(fb.v, j))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range proj {
				if math.Abs(p) > 3*s/math.Sqrt(float64(l)) {
					return j
				}
			}
		}
		return len(sv)
	default:
		return cfg.FixedRank
	}
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
// build against the one it replaced, for every rank mode of both families:
// the reference keeps every component — the all-pairs mat.SymEigen of the
// same sketch Gram for randproj, every block pair for FD — and applies the
// rank rule and threshold to that. Spectrum, rank and threshold must agree
// bit for bit, distances within 1e-12 relative, identified culprit sets
// exactly, and Cov must be the covariance the reference decomposed.
func TestLeadingBasisMatchesFullSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	const n, m, k, l = 300, 24, 3, 32
	x := lowRankStream(rng, n, m, k, 2)
	for _, family := range []sketch.Family{sketch.FamilyRandProj, sketch.FamilyFD} {
		for _, mode := range []RankMode{RankFixed, RankEnergy, RankThreeSigma} {
			if family == sketch.FamilyFD && mode == RankThreeSigma {
				continue // rejected by NewDetector
			}
			name := family.String() + "/" + mode.String()
			cl, err := NewCluster(ClusterConfig{
				NumFlows: m, NumMonitors: 3, WindowLen: n, Epsilon: 0.01, Alpha: 0.01,
				Sketch: randproj.Config{Seed: 5, SketchLen: l}, Family: family,
				Mode: mode, FixedRank: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			driveCluster(t, cl, x)
			f, err := cl.Fetch()
			if err != nil {
				t.Fatal(err)
			}
			det := cl.Detector()
			if err := det.Rebuild(f); err != nil {
				t.Fatal(err)
			}
			got := det.Model()

			var full fullBuild
			var z *mat.Matrix
			if family == sketch.FamilyFD {
				full = fullFD(t, f, m)
			} else {
				full, z = fullRandProj(t, f, l)
			}
			rank := full.rank(t, det.cfg, z)
			threshold, capped, err := stats.QStatisticCapped(full.sv[:full.realLen], n, rank, 0.01)
			if err != nil {
				t.Fatalf("%s: reference threshold: %v", name, err)
			}
			if got.Rank != rank || got.Components.Cols() != rank || got.Components.Rows() != m {
				t.Fatalf("%s: rank %d, basis %dx%d; reference rank %d", name,
					got.Rank, got.Components.Rows(), got.Components.Cols(), rank)
			}
			if math.Float64bits(got.Threshold) != math.Float64bits(threshold) ||
				got.ThresholdCapped != capped || got.ThresholdUnavailable {
				t.Fatalf("%s: threshold %v (capped %d, unavailable %v), reference %v (capped %d)", name,
					got.Threshold, got.ThresholdCapped, got.ThresholdUnavailable, threshold, capped)
			}
			for j, s := range full.sv {
				if math.Float64bits(got.Singular[j]) != math.Float64bits(s) {
					t.Fatalf("%s: λ̂_%d = %v, reference %v", name, j, got.Singular[j], s)
				}
			}
			if !got.Cov.Equal(full.cov, 0) {
				t.Fatalf("%s: Cov is not the covariance the reference decomposed", name)
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
				if math.Abs(dGot-dRef) > 1e-12*dRef {
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
				if a, b := culprits(idGot), culprits(idRef); len(a) == 0 || fmt.Sprint(a) != fmt.Sprint(b) {
					t.Fatalf("%s: identified %v, reference %v", name, a, b)
				}
			}
		}
	}
}
