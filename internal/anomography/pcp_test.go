package anomography

import (
	"math"
	"math/rand"
	"testing"

	"streampca/internal/mat"
)

// synthLowRankPlusSparse builds D = L0 + S0 with L0 of the given rank and
// nnz large sparse spikes, returning D, L0 and the spike coordinates.
func synthLowRankPlusSparse(n, m, rank, nnz int, seed int64) (*mat.Matrix, *mat.Matrix, map[[2]int]float64) {
	rng := rand.New(rand.NewSource(seed))
	u := mat.NewMatrix(n, rank)
	v := mat.NewMatrix(m, rank)
	for i := 0; i < n; i++ {
		for j := 0; j < rank; j++ {
			u.Set(i, j, rng.NormFloat64())
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < rank; j++ {
			v.Set(i, j, rng.NormFloat64())
		}
	}
	l0, _ := u.Mul(v.T())
	d := l0.Clone()
	spikes := make(map[[2]int]float64)
	for len(spikes) < nnz {
		i, j := rng.Intn(n), rng.Intn(m)
		if _, dup := spikes[[2]int{i, j}]; dup {
			continue
		}
		amp := 50 + 10*rng.Float64()
		if rng.Intn(2) == 0 {
			amp = -amp
		}
		spikes[[2]int{i, j}] = amp
		d.Set(i, j, d.At(i, j)+amp)
	}
	return d, l0, spikes
}

func TestPCPRecoversLowRankPlusSparse(t *testing.T) {
	const n, m, rank, nnz = 60, 40, 2, 20
	d, l0, spikes := synthLowRankPlusSparse(n, m, rank, nnz, 42)
	res, err := PCP(d, PCPConfig{MaxIter: 300, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("pcp did not converge in %d iterations (rel residual %g)", res.Iterations, res.RelResidual)
	}
	diff, err := res.L.Sub(l0)
	if err != nil {
		t.Fatal(err)
	}
	if rel := diff.FrobeniusNorm() / l0.FrobeniusNorm(); rel > 0.05 {
		t.Fatalf("low-rank part off by %g relative", rel)
	}
	// Every injected spike must dominate its row's sparse part.
	rows := map[int][]int{}
	for at := range spikes {
		rows[at[0]] = append(rows[at[0]], at[1])
	}
	for row, flows := range rows {
		got := RowCulprits(res.S, row, len(flows), 1.0)
		found := map[int]bool{}
		for _, f := range got {
			found[f] = true
		}
		for _, f := range flows {
			if !found[f] {
				t.Fatalf("row %d: spike at flow %d missing from culprits %v", row, f, got)
			}
		}
	}
}

func TestPCPWideMatrixTranspose(t *testing.T) {
	// Wider than tall exercises the transpose route; results must come back
	// in the original orientation.
	const n, m = 30, 50
	d, _, _ := synthLowRankPlusSparse(n, m, 2, 8, 7)
	res, err := PCP(d, PCPConfig{MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.L.Rows() != n || res.L.Cols() != m || res.S.Rows() != n || res.S.Cols() != m {
		t.Fatalf("shape: L %dx%d S %dx%d, want %dx%d", res.L.Rows(), res.L.Cols(), res.S.Rows(), res.S.Cols(), n, m)
	}
	diff, err := d.Sub(res.L)
	if err != nil {
		t.Fatal(err)
	}
	if diff, err = diff.Sub(res.S); err != nil {
		t.Fatal(err)
	}
	if rel := diff.FrobeniusNorm() / d.FrobeniusNorm(); rel > 1e-5 {
		t.Fatalf("L+S misses D by %g relative", rel)
	}
}

func TestPCPDeterministicAcrossWorkers(t *testing.T) {
	d, _, _ := synthLowRankPlusSparse(40, 30, 2, 10, 9)
	ref, err := PCP(d, PCPConfig{MaxIter: 60})
	if err != nil {
		t.Fatal(err)
	}
	res, err := PCP(d, PCPConfig{MaxIter: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !res.L.Equal(ref.L, 0) || !res.S.Equal(ref.S, 0) {
		t.Fatal("pcp not bit-identical between runs")
	}
}

func TestPCPBadInput(t *testing.T) {
	if _, err := PCP(nil, PCPConfig{}); err == nil {
		t.Fatal("nil input must error")
	}
	bad := mat.NewMatrix(3, 3)
	bad.Set(1, 1, math.Inf(1))
	if _, err := PCP(bad, PCPConfig{}); err == nil {
		t.Fatal("non-finite input must error")
	}
	zero := mat.NewMatrix(4, 3)
	res, err := PCP(zero, PCPConfig{})
	if err != nil || !res.Converged {
		t.Fatalf("zero matrix: %v %+v", err, res)
	}
}
