package mat

// GramWorkers forwards to Gram; the int is ignored.
//
// Deprecated: pinned by bench/staged.go:433, which this tree may not edit
// outside a benchmark change.
func (m *Matrix) GramWorkers(_ int) *Matrix { return m.Gram() }

// SymEigenWorkers forwards to SymEigen; the int is ignored.
//
// Deprecated: pinned by bench/staged.go:436, which this tree may not edit
// outside a benchmark change.
func SymEigenWorkers(a *Matrix, _ int) (*EigenSym, error) { return SymEigen(a) }
