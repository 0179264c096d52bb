// Package mat provides the dense linear-algebra substrate used by the
// streaming-PCA library: row-major dense matrices and vectors, the Gram
// kernel, Householder QR with least squares, and one symmetric eigensolver,
// Householder tridiagonalisation + implicit QL, behind two entry points —
// SymEigen, every eigenpair, solved block by block when the matrix is
// reducible (the exact references and Frequent Directions); and
// SymEigenLeading, every eigenvalue and only the leading eigenvectors asked
// for, by inverse iteration on the tridiagonal (the NOC model build, which
// factors into storage it reuses from rebuild to rebuild).
//
// The package is deliberately small and dependency-free (stdlib only). It is
// tuned for the matrix sizes that occur in network-wide PCA detection —
// tens-to-hundreds of aggregated flows — and its results are pure functions
// of their inputs: no parallelism, no data-dependent scheduling.
//
// All matrices use row-major storage. Dimensions are validated eagerly;
// functions return errors rather than panicking for user-reachable failure
// modes, per the project style guide.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Common errors returned by the package.
var (
	// ErrShape indicates incompatible or invalid matrix dimensions.
	ErrShape = errors.New("mat: incompatible matrix shape")
	// ErrSingular indicates a numerically singular system.
	ErrSingular = errors.New("mat: singular matrix")
	// ErrNoConverge indicates an iterative method exhausted its sweep budget.
	ErrNoConverge = errors.New("mat: iteration did not converge")
	// ErrNotFinite indicates a NaN or Inf was found where finite data is required.
	ErrNotFinite = errors.New("mat: non-finite value")
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty 0x0 matrix. Use NewMatrix or NewMatrixFromRows
// to construct one with content.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns an r×c matrix of zeros.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		r, c = 0, 0
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewMatrixFromRows builds a matrix from a slice of equally sized rows. The
// data is copied, so the caller retains ownership of rows.
func NewMatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(row), c)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RowView returns row i as a slice sharing the matrix's backing storage.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) RowView(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// RowsView returns the first r rows as a matrix sharing m's backing storage.
func (m *Matrix) RowsView(r int) *Matrix {
	return &Matrix{rows: r, cols: m.cols, data: m.data[:r*m.cols]}
}

// ColInto copies column j into dst, which must have length Rows, without
// allocating (e.g. the detector reading its l×l side's eigenvectors one by one).
func (m *Matrix) ColInto(j int, dst []float64) error {
	if len(dst) != m.rows {
		return fmt.Errorf("%w: column of %d rows into buffer of %d", ErrShape, m.rows, len(dst))
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = m.data[i*m.cols+j]
	}
	return nil
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Equal reports whether m and o have the same shape and elementwise values
// within absolute tolerance tol.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-o.data[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every element is finite (no NaN/Inf).
func (m *Matrix) IsFinite() bool {
	for _, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// Sub returns m − o as a new matrix.
func (m *Matrix) Sub(o *Matrix) (*Matrix, error) {
	if m.rows != o.rows || m.cols != o.cols {
		return nil, fmt.Errorf("%w: sub %dx%d and %dx%d", ErrShape, m.rows, m.cols, o.rows, o.cols)
	}
	out := m.Clone()
	for i, v := range o.data {
		out.data[i] -= v
	}
	return out, nil
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	out := make([]float64, m.rows)
	if err := m.MulVecTo(out, v); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecTo computes m·v into dst (length Rows) without allocating. dst must
// not alias v.
func (m *Matrix) MulVecTo(dst, v []float64) error {
	if m.cols != len(v) {
		return fmt.Errorf("%w: mulvec %dx%d by vector of %d", ErrShape, m.rows, m.cols, len(v))
	}
	if len(dst) != m.rows {
		return fmt.Errorf("%w: mulvec %dx%d into buffer of %d", ErrShape, m.rows, m.cols, len(dst))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		dst[i] = s
	}
	return nil
}

// TMulVec returns mᵀ·v without materializing the transpose.
func (m *Matrix) TMulVec(v []float64) ([]float64, error) {
	out := make([]float64, m.cols)
	if err := m.TMulVecTo(out, v); err != nil {
		return nil, err
	}
	return out, nil
}

// TMulVecTo computes mᵀ·v into dst (length Cols) without allocating or
// materializing the transpose. dst must not alias v.
func (m *Matrix) TMulVecTo(dst, v []float64) error {
	if m.rows != len(v) {
		return fmt.Errorf("%w: tmulvec %dx%d by vector of %d", ErrShape, m.rows, m.cols, len(v))
	}
	if len(dst) != m.cols {
		return fmt.Errorf("%w: tmulvec %dx%d into buffer of %d", ErrShape, m.rows, m.cols, len(dst))
	}
	clear(dst)
	for i := 0; i < m.rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		addMul(dst, m.data[i*m.cols:(i+1)*m.cols], vi)
	}
	return nil
}

// FrobeniusNorm returns the Frobenius norm sqrt(Σ m_ij²).
func (m *Matrix) FrobeniusNorm() float64 {
	// Scaled accumulation to avoid overflow for large entries.
	var scale, ssq float64 = 0, 1
	for _, v := range m.data {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// MaxAbs returns the largest absolute element value (0 for empty matrices).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if av := math.Abs(v); av > mx {
			mx = av
		}
	}
	return mx
}

// CenterColumns subtracts each column's mean from the column in place and
// returns the vector of removed means. This is the Y = X − x̄ adjustment the
// PCA methods require.
func (m *Matrix) CenterColumns() []float64 {
	means := make([]float64, m.cols)
	if m.rows == 0 {
		return means
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			means[j] += v
		}
	}
	inv := 1 / float64(m.rows)
	for j := range means {
		means[j] *= inv
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j := range row {
			row[j] -= means[j]
		}
	}
	return means
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	const maxShow = 8
	var b strings.Builder
	b.WriteString(strconv.Itoa(m.rows))
	b.WriteByte('x')
	b.WriteString(strconv.Itoa(m.cols))
	b.WriteString(" [")
	for i := 0; i < m.rows && i < maxShow; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.cols && j < maxShow; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatFloat(m.At(i, j), 'g', 5, 64))
		}
		if m.cols > maxShow {
			b.WriteString(" …")
		}
	}
	if m.rows > maxShow {
		b.WriteString("; …")
	}
	b.WriteByte(']')
	return b.String()
}
