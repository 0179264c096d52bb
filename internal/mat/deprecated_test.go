package mat

import (
	"math/rand"
	"testing"
)

// TestGramWorkersBitIdentical: the deprecated entry point is Gram, whatever
// int it is handed.
func TestGramWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range [][2]int{{1, 1}, {17, 33}, {256, 81}} {
		m := randomSparseMatrix(rng, sh[0], sh[1])
		if !bitIdentical(m.Gram(), m.GramWorkers(4)) {
			t.Fatalf("%dx%d: GramWorkers differs from Gram", sh[0], sh[1])
		}
	}
}

// TestSymEigenWorkersDeterministic: the deprecated entry point is SymEigen,
// whatever int it is handed.
func TestSymEigenWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{7, 120} {
		a := randomSymmetric(rng, n)
		ref, err := SymEigen(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := SymEigenWorkers(a, 4)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range ref.Values {
			if ref.Values[i] != got.Values[i] {
				t.Fatalf("n=%d: eigenvalue %d differs from SymEigen", n, i)
			}
		}
		if !bitIdentical(ref.Vectors, got.Vectors) {
			t.Fatalf("n=%d: eigenvectors differ from SymEigen", n)
		}
	}
}
