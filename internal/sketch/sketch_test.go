package sketch

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"streampca/internal/mat"
	"streampca/internal/randproj"
	"streampca/internal/vh"
)

// centerStream replays FD's running-mean centering over raw rows, returning
// the rows exactly as the sketcher inserted them.
func centerStream(rows [][]float64) *mat.Matrix {
	w := len(rows[0])
	sums := make([]float64, w)
	out := mat.NewMatrix(len(rows), w)
	for t, row := range rows {
		dst := out.RowView(t)
		for i, v := range row {
			mean := 0.0
			if t > 0 {
				mean = sums[i] / float64(t)
			}
			dst[i] = v - mean
			sums[i] += v
		}
	}
	return out
}

// spectralNorm returns ‖s‖₂ for a symmetric matrix via its eigenvalues.
func spectralNorm(t *testing.T, s *mat.Matrix) float64 {
	t.Helper()
	eig, err := mat.SymEigen(s)
	if err != nil {
		t.Fatalf("SymEigen: %v", err)
	}
	mx := 0.0
	for _, l := range eig.Values {
		if a := math.Abs(l); a > mx {
			mx = a
		}
	}
	return mx
}

// covGap returns ‖AᵀA − BᵀB‖₂ where b holds the sketch rows.
func covGap(t *testing.T, a *mat.Matrix, fdRows [][]float64, w int) float64 {
	t.Helper()
	b := mat.NewMatrix(len(fdRows), w)
	for i, row := range fdRows {
		copy(b.RowView(i), row)
	}
	diff, err := a.Gram().Sub(b.Gram())
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	return spectralNorm(t, diff)
}

func randRows(seed int64, n, w int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for t := range rows {
		rows[t] = make([]float64, w)
		for i := range rows[t] {
			rows[t][i] = math.Round(100 + 10*rng.NormFloat64())
		}
	}
	return rows
}

func flowIDs(w int) []int {
	ids := make([]int, w)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestParseFamily(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Family
	}{{"", FamilyRandProj}, {"randproj", FamilyRandProj}, {"fd", FamilyFD}} {
		got, err := ParseFamily(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFamily(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseFamily("nope"); !errors.Is(err, ErrConfig) {
		t.Fatalf("ParseFamily(nope) err = %v, want ErrConfig", err)
	}
	if FamilyRandProj.String() != "randproj" || FamilyFD.String() != "fd" {
		t.Fatalf("Family strings: %v %v", FamilyRandProj, FamilyFD)
	}
}

func TestNewFactorySelectsFamily(t *testing.T) {
	gen, err := randproj.NewGenerator(randproj.Config{Seed: 1, SketchLen: 8, WindowLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := New(Config{FlowIDs: flowIDs(3), WindowLen: 64, Gen: gen})
	if err != nil {
		t.Fatal(err)
	}
	if sk.Family() != FamilyRandProj {
		t.Fatalf("default family %v", sk.Family())
	}
	sk, err = New(Config{Family: FamilyFD, FlowIDs: flowIDs(9), Ell: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sk.Family() != FamilyFD {
		t.Fatalf("fd family %v", sk.Family())
	}
	if _, err := New(Config{Family: Family(9), FlowIDs: flowIDs(3)}); !errors.Is(err, ErrConfig) {
		t.Fatalf("unknown family err = %v", err)
	}
}

func TestFDDeterministicBound(t *testing.T) {
	const w, n, ell = 12, 400, 5
	rows := randRows(7, n, w)
	fd, err := NewFD(Config{Family: FamilyFD, FlowIDs: flowIDs(w), Ell: ell})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if err := fd.Update(int64(i+1), row); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	a := centerStream(rows)
	snap := fd.Snapshot()
	if err := snap.Validate(ell); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	gap := covGap(t, a, snap.FDRows, w)
	// Numerical slack: the bound is exact in real arithmetic.
	tol := 1e-6 * a.Gram().FrobeniusNorm()
	if gap > snap.FDDelta+tol {
		t.Fatalf("‖AᵀA−BᵀB‖₂ = %v exceeds Δ = %v", gap, snap.FDDelta)
	}
	fro := a.FrobeniusNorm()
	if snap.FDDelta > fro*fro/float64(ell)+tol {
		t.Fatalf("Δ = %v exceeds ‖A‖²_F/ℓ = %v", snap.FDDelta, fro*fro/float64(ell))
	}
	if snap.FDDelta == 0 {
		t.Fatal("Δ stayed 0 over 400 rows: shrink never ran")
	}
	if snap.Interval != int64(n) || fd.Now() != int64(n) {
		t.Fatalf("interval %d, want %d", snap.Interval, n)
	}
	if got := snap.Counts[0]; got != int64(n) {
		t.Fatalf("count %d, want %d", got, n)
	}
}

// TestFDShrinkAllocatesOnlyTheFirstTime: the shrink runs in storage the
// sketcher keeps, so once the first shrink has sized the eigensolver's
// scratch, ℓ more updates, the last of which shrinks again, allocate nothing.
// The shape is a fed-fd-ingest monitor's: 14 flows, DefaultEll.
func TestFDShrinkAllocatesOnlyTheFirstTime(t *testing.T) {
	const w = 14
	rows := randRows(11, 64, w)
	fd, err := NewFD(Config{Family: FamilyFD, FlowIDs: flowIDs(w)})
	if err != nil {
		t.Fatal(err)
	}
	ell, next := fd.Ell(), 0
	update := func() {
		if err := fd.Update(int64(next+1), rows[next%len(rows)]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range 2 * ell {
		update()
	}
	if fd.StateSize() != ell || fd.Snapshot().FDDelta == 0 {
		t.Fatalf("after %d updates: %d rows, Δ %v; want a first shrink to %d", 2*ell, fd.StateSize(), fd.Snapshot().FDDelta, ell)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for range ell {
			update()
		}
	})
	if fd.StateSize() != ell {
		t.Fatalf("%d rows after whole rounds of ℓ updates, want %d", fd.StateSize(), ell)
	}
	if allocs != 0 {
		t.Fatalf("ℓ = %d updates with a shrink allocate %v times, want 0", ell, allocs)
	}
}

func TestFDMeansTrackStream(t *testing.T) {
	const w, n = 8, 50
	rows := randRows(11, n, w)
	fd, err := NewFD(Config{FlowIDs: flowIDs(w), Ell: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, w)
	for i, row := range rows {
		if err := fd.Update(int64(i+1), row); err != nil {
			t.Fatal(err)
		}
		for j, v := range row {
			want[j] += v
		}
	}
	snap := fd.Snapshot()
	for j := range want {
		if got := snap.Means[j]; math.Abs(got-want[j]/n) > 1e-9 {
			t.Fatalf("mean[%d] = %v, want %v", j, got, want[j]/n)
		}
	}
}

func TestFDUpdateErrors(t *testing.T) {
	fd, err := NewFD(Config{FlowIDs: flowIDs(5), Ell: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.Update(1, []float64{1, 2}); !errors.Is(err, ErrInput) {
		t.Fatalf("short row err = %v", err)
	}
	if err := fd.Update(1, []float64{1, 2, 3, 4, math.NaN()}); !errors.Is(err, ErrInput) {
		t.Fatalf("NaN err = %v", err)
	}
	if err := fd.Update(1, []float64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := fd.Update(1, []float64{1, 2, 3, 4, 5}); !errors.Is(err, ErrInput) {
		t.Fatalf("repeated interval err = %v", err)
	}
	if _, err := NewFD(Config{FlowIDs: nil, Ell: 2}); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty flows err = %v", err)
	}
	if _, err := NewFD(Config{FlowIDs: flowIDs(5), Ell: -1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative ell err = %v", err)
	}
}

// TestNewFDRejectsVacuousBudget covers the 2ℓ < w boundary: at 2ℓ = w the
// buffer already costs as much as the exact Gram matrix, so NewFD refuses
// with the typed ErrFDBudget (which still satisfies errors.Is ErrConfig).
func TestNewFDRejectsVacuousBudget(t *testing.T) {
	if _, err := NewFD(Config{FlowIDs: flowIDs(12), Ell: 6}); !errors.Is(err, ErrFDBudget) {
		t.Fatalf("2ℓ = w err = %v, want ErrFDBudget", err)
	}
	if _, err := NewFD(Config{FlowIDs: flowIDs(12), Ell: 7}); !errors.Is(err, ErrConfig) {
		t.Fatalf("2ℓ > w err = %v, want ErrConfig via ErrFDBudget", err)
	}
	if _, err := NewFD(Config{FlowIDs: flowIDs(13), Ell: 6}); err != nil {
		t.Fatalf("2ℓ = w−1 must be accepted: %v", err)
	}
	// w ≤ 2 admits no budget at all (even ℓ = 1 has 2ℓ ≥ w).
	for w := 1; w <= 2; w++ {
		if _, err := NewFD(Config{FlowIDs: flowIDs(w), Ell: 1}); !errors.Is(err, ErrFDBudget) {
			t.Fatalf("w = %d err = %v, want ErrFDBudget", w, err)
		}
		if _, err := NewFD(Config{FlowIDs: flowIDs(w)}); !errors.Is(err, ErrFDBudget) {
			t.Fatalf("w = %d defaulted err = %v, want ErrFDBudget", w, err)
		}
	}
	// The defaulted budget always clears the bound for any usable width.
	for w := 3; w <= 64; w++ {
		if _, err := NewFD(Config{FlowIDs: flowIDs(w)}); err != nil {
			t.Fatalf("defaulted ell at w = %d: %v", w, err)
		}
	}
}

func TestSnapshotValidateFD(t *testing.T) {
	good := Snapshot{
		FlowIDs: []int{0, 1},
		Means:   []float64{1, 2},
		Family:  FamilyFD,
		FDRows:  [][]float64{{1, 2}, {3, 4}},
		FDEll:   2,
	}
	if err := good.Validate(2); err != nil {
		t.Fatalf("good snapshot: %v", err)
	}
	for name, mut := range map[string]func(s *Snapshot){
		"wrong ell":      func(s *Snapshot) { s.FDEll = 3 },
		"too many rows":  func(s *Snapshot) { s.FDRows = make([][]float64, 5); s.fillRows(2) },
		"ragged row":     func(s *Snapshot) { s.FDRows = [][]float64{{1}} },
		"nan row":        func(s *Snapshot) { s.FDRows = [][]float64{{math.NaN(), 0}} },
		"negative delta": func(s *Snapshot) { s.FDDelta = -1 },
		"nan mean":       func(s *Snapshot) { s.Means = []float64{math.Inf(1), 0} },
		"short means":    func(s *Snapshot) { s.Means = []float64{1} },
		"bad family":     func(s *Snapshot) { s.Family = Family(9) },
	} {
		s := good
		mut(&s)
		if err := s.Validate(2); !errors.Is(err, ErrInput) {
			t.Fatalf("%s: err = %v, want ErrInput", name, err)
		}
	}
}

// fillRows populates FDRows with zero rows of width w (test helper for the
// too-many-rows case).
func (s *Snapshot) fillRows(w int) {
	for i := range s.FDRows {
		s.FDRows[i] = make([]float64, w)
	}
}

func TestRandProjSnapshotMatchesValidate(t *testing.T) {
	const w, l, window = 5, 8, 32
	gen, err := randproj.NewGenerator(randproj.Config{Seed: 3, SketchLen: l, WindowLen: window})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := NewRandProj(Config{FlowIDs: flowIDs(w), WindowLen: window, Gen: gen})
	if err != nil {
		t.Fatal(err)
	}
	rows := randRows(5, 20, w)
	for i, row := range rows {
		if err := sk.Update(int64(i+1), row); err != nil {
			t.Fatal(err)
		}
	}
	snap := sk.Snapshot()
	if err := snap.Validate(l); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if snap.Family != FamilyRandProj {
		t.Fatalf("family %v", snap.Family)
	}
	if err := snap.Validate(l + 1); !errors.Is(err, ErrInput) {
		t.Fatalf("wrong-l err = %v", err)
	}
	if sk.StateSize() <= 0 {
		t.Fatal("StateSize must count histogram buckets")
	}
	if sk.Histogram(0) == nil || sk.Histogram(-1) != nil || sk.Histogram(w) != nil {
		t.Fatal("Histogram accessor bounds")
	}
}

// TestRandProjUpdateAllOrNothing: a rejected Update (a NaN, a fraction or a
// volume too large for exact window sums in the third of four flows) must
// leave every histogram untouched, so the same interval can be retried with
// clean volumes.
func TestRandProjUpdateAllOrNothing(t *testing.T) {
	const l, window = 8, 32
	gen, err := randproj.NewGenerator(randproj.Config{Seed: 3, SketchLen: l, WindowLen: window})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := NewRandProj(Config{FlowIDs: flowIDs(4), WindowLen: window, Gen: gen})
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.Update(1, []float64{5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	before := sk.Snapshot()
	for _, bad := range [][]float64{
		{1, 2, math.NaN(), 4},
		{1, 2, 3, math.Inf(1)},
		{1, 2, 3.5, 4},
		{1, 2, 1 << 48, 4}, // 2⁴⁸·32 = 2⁵³
		{1, 2, 3},
	} {
		err := sk.Update(2, bad)
		if after := sk.Snapshot(); !reflect.DeepEqual(after, before) || sk.Now() != 1 {
			t.Fatalf("%v: state moved on a rejected update (%v):\n before %+v\n after  %+v", bad, err, before, after)
		}
		if !errors.Is(err, ErrInput) || len(bad) == 4 && !errors.Is(err, vh.ErrVolume) {
			t.Fatalf("%v: err = %v, want ErrInput and, for a volume, vh.ErrVolume", bad, err)
		}
	}
	if err := sk.Update(2, []float64{1, 2, 1<<48 - 1, 4}); err != nil {
		t.Fatalf("the largest volume a window of %d takes: %v", window, err)
	}
	if err := sk.Update(1, []float64{1, 2, 3, 4}); !errors.Is(err, ErrInput) {
		t.Fatalf("stale interval: err = %v, want ErrInput", err)
	}
	if err := sk.Update(3, []float64{1, 2, 3, 4}); err != nil {
		t.Fatalf("clean interval 3: %v", err)
	}
	// A snapshot leaves out the newest interval: it counts intervals 1 and 2.
	if snap := sk.Snapshot(); sk.Now() != 3 || !reflect.DeepEqual(snap.Counts, []int64{2, 2, 2, 2}) {
		t.Fatalf("after retry: now %d counts %v", sk.Now(), snap.Counts)
	}
}

// TestRandProjUpdateZeroAlloc pins the steady-state quiet path to zero
// allocations, at the benchmark's deployed point and at the sketchpca-noc
// default window: every element is one float of its histogram's window ring
// and every row is read off the shared row ring.
func TestRandProjUpdateZeroAlloc(t *testing.T) {
	for _, tt := range []struct {
		name   string
		window int
	}{
		{name: "deployed n=144", window: 144},
		{name: "noc default n=4032", window: 4032},
	} {
		t.Run(tt.name, func(t *testing.T) {
			const w, l = 27, 100
			gen, err := randproj.NewGenerator(randproj.Config{Seed: 3, SketchLen: l, WindowLen: tt.window})
			if err != nil {
				t.Fatal(err)
			}
			sk, err := NewRandProj(Config{FlowIDs: flowIDs(w), WindowLen: tt.window, Gen: gen})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			volumes := make([]float64, w)
			ti := int64(0)
			update := func() {
				ti++
				for i := range volumes {
					volumes[i] = math.Round(1000 + 50*rng.NormFloat64())
				}
				if err := sk.Update(ti, volumes); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2*tt.window; i++ {
				update()
			}
			if avg := testing.AllocsPerRun(tt.window, update); avg != 0 {
				t.Fatalf("Update allocates %.2f times per call, want 0", avg)
			}
			if got := sk.StateSize(); got != w*tt.window {
				t.Fatalf("state size %d for %d flows of window %d, want %d", got, w, tt.window, w*tt.window)
			}
		})
	}
}

func TestDefaultEll(t *testing.T) {
	if got := DefaultEll(81); got != 18 {
		t.Fatalf("DefaultEll(81) = %d, want 18", got)
	}
	if got := DefaultEll(0); got != 2 {
		t.Fatalf("DefaultEll(0) = %d, want 2", got)
	}
	if got := DefaultEll(256); got != 32 {
		t.Fatalf("DefaultEll(256) = %d, want 32", got)
	}
	// Narrow shards clamp to MaxEll so the default clears the 2ℓ < w bound:
	// 2·⌈√20⌉ = 10 would tie the width, (20−1)/2 = 9 does not.
	if got := DefaultEll(20); got != 9 {
		t.Fatalf("DefaultEll(20) = %d, want 9", got)
	}
	if got := DefaultEll(4); got != 1 {
		t.Fatalf("DefaultEll(4) = %d, want 1", got)
	}
	for w := 3; w <= 512; w++ {
		if ell := DefaultEll(w); 2*ell >= w {
			t.Fatalf("DefaultEll(%d) = %d violates 2ℓ < w", w, ell)
		}
	}
}

// TestRandProjAdditiveLinearity: the randproj sketch is linear in the volume
// stream — ẑ(A+B) = ẑ(A) + ẑ(B) for streams over the same intervals (eq. 17
// is a linear functional of x once the shared r_tk are fixed). This is the
// property the NOC's merge-by-addition aggregation of same-flow shards rests
// on; it holds exactly while no interval has expired from the window.
func TestRandProjAdditiveLinearity(t *testing.T) {
	const w, l, window = 4, 8, 64
	gen, err := randproj.NewGenerator(randproj.Config{Seed: 17, SketchLen: l, WindowLen: window})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *RandProj {
		sk, err := NewRandProj(Config{FlowIDs: flowIDs(w), WindowLen: window, Gen: gen})
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	skA, skB, skSum := mk(), mk(), mk()
	a := randRows(100, 48, w)
	b := randRows(200, 48, w)
	sum := make([]float64, w)
	for i := range a {
		tt := int64(i + 1)
		if err := skA.Update(tt, a[i]); err != nil {
			t.Fatal(err)
		}
		if err := skB.Update(tt, b[i]); err != nil {
			t.Fatal(err)
		}
		for j := range sum {
			sum[j] = a[i][j] + b[i][j]
		}
		if err := skSum.Update(tt, sum); err != nil {
			t.Fatal(err)
		}
	}
	sa, sb, ss := skA.Snapshot(), skB.Snapshot(), skSum.Snapshot()
	for j := 0; j < w; j++ {
		if diff := math.Abs(sa.Means[j] + sb.Means[j] - ss.Means[j]); diff > 1e-9 {
			t.Fatalf("means not additive at flow %d (diff %v)", j, diff)
		}
		for k := 0; k < l; k++ {
			got := sa.Sketches[j][k] + sb.Sketches[j][k]
			want := ss.Sketches[j][k]
			if diff := math.Abs(got - want); diff > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("sketch not additive at flow %d k %d: %v vs %v", j, k, got, want)
			}
		}
	}
}

// TestRandProjFlowsShareTheRingExactly: w histograms reading one row ring
// hold the bits each would hold over a ring of its own.
func TestRandProjFlowsShareTheRingExactly(t *testing.T) {
	const w, l, window = 6, 40, 96
	cfg := randproj.Config{Seed: 21, SketchLen: l, WindowLen: window}
	gen, err := randproj.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewRandProj(Config{FlowIDs: flowIDs(w), WindowLen: window, Gen: gen})
	if err != nil {
		t.Fatal(err)
	}
	alone := make([]*RandProj, w)
	for i := range alone {
		g, err := randproj.NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if alone[i], err = NewRandProj(Config{FlowIDs: []int{i}, WindowLen: window, Gen: g}); err != nil {
			t.Fatal(err)
		}
	}
	rows := randRows(8, 4*window, w)
	for ti, row := range rows {
		it := int64(ti + 1)
		if err := shared.Update(it, row); err != nil {
			t.Fatal(err)
		}
		for i, sk := range alone {
			if err := sk.Update(it, row[i:i+1]); err != nil {
				t.Fatal(err)
			}
			got, want := shared.Histogram(i), sk.Histogram(0)
			if g, w := got.SketchInto(nil), want.SketchInto(nil); !reflect.DeepEqual(g, w) {
				t.Fatalf("interval %d, flow %d: shared-ring sketch %v, own-ring %v", it, i, g, w)
			}
		}
	}
}
