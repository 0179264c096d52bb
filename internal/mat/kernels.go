package mat

import "fmt"

// Mul returns the matrix product m·o as a new matrix. Per output entry the
// k-summation order is ascending.
func (m *Matrix) Mul(o *Matrix) (*Matrix, error) {
	if m.cols != o.rows {
		return nil, fmt.Errorf("%w: mul %dx%d by %dx%d", ErrShape, m.rows, m.cols, o.rows, o.cols)
	}
	out := NewMatrix(m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		mulRow(out.data[i*o.cols:(i+1)*o.cols], m.data[i*m.cols:], 1, o)
	}
	return out, nil
}

// TMulInto overwrites the r×c dst with the product of the first r columns of
// m, transposed, and o: bit for bit what Mul returns for the r×m.Rows()
// matrix whose row i is column i of m, without forming it.
func (m *Matrix) TMulInto(dst, o *Matrix) error {
	if m.rows != o.rows || dst.rows > m.cols || dst.cols != o.cols {
		return fmt.Errorf("%w: %dx%d = the first %d columns of %dx%d, transposed, by %dx%d",
			ErrShape, dst.rows, dst.cols, dst.rows, m.rows, m.cols, o.rows, o.cols)
	}
	clear(dst.data)
	for i := 0; i < dst.rows; i++ {
		mulRow(dst.data[i*o.cols:(i+1)*o.cols], m.data[i:], m.cols, o)
	}
	return nil
}

// mulRow adds to out, one row of a product, a[k·stride]·(row k of o) for
// every row k of o in ascending order, skipping the zero coefficients. Each
// product is written float64(mv*ov) so arm64 does not fuse it into the add.
func mulRow(out, a []float64, stride int, o *Matrix) {
	for k := 0; k < o.rows; k++ {
		mv := a[k*stride]
		if mv == 0 {
			continue
		}
		for j, ov := range o.data[k*o.cols : (k+1)*o.cols] {
			out[j] += float64(mv * ov)
		}
	}
}

// Gram returns mᵀ·m (the c×c Gram matrix): one pass over the input rows
// accumulates the upper triangle, which is then mirrored into the lower one.
func (m *Matrix) Gram() *Matrix {
	out := NewMatrix(m.cols, m.cols)
	gramInto(out, m.rows, m.RowView)
	return out
}

// TGramInto overwrites the r×r dst with m·mᵀ, bit for bit m.T().Gram(),
// without forming the transpose: the columns of m are the Gram's rows, and
// each is copied into cols (length ≥ 2r, two columns) as gramInto asks for
// it, which is two at a time.
func (m *Matrix) TGramInto(dst *Matrix, cols []float64) error {
	r := m.rows
	if dst.rows != r || dst.cols != r || len(cols) < 2*r {
		return fmt.Errorf("%w: gram of %dx%d's rows into %dx%d with %d scratch", ErrShape, m.rows, m.cols, dst.rows, dst.cols, len(cols))
	}
	gramInto(dst, m.cols, func(k int) []float64 {
		col := cols[k%2*r : (k%2+1)*r]
		for a := range col {
			col[a] = m.data[a*m.cols+k]
		}
		return col
	})
	return nil
}

// RowGramInto overwrites the c×c dst with the Gram of the matrix whose rows
// are rows, each of length c: bit for bit that matrix's Gram, without forming
// the matrix.
func RowGramInto(dst *Matrix, rows [][]float64) error {
	bad := dst.rows != dst.cols
	for _, r := range rows {
		bad = bad || len(r) != dst.cols
	}
	if bad {
		return fmt.Errorf("%w: gram of rows of other lengths into %dx%d", ErrShape, dst.rows, dst.cols)
	}
	gramInto(dst, len(rows), func(i int) []float64 { return rows[i] })
	return nil
}

// gramInto overwrites the c×c out with the Gram of the rows row(0) …
// row(rows−1), each of length c. One pass over the rows folds them into the
// upper triangle, out[a][b] += row[a]·row[b] for b ≥ a, which is then mirrored
// into the lower one. Rows are consumed in pairs — the panel is streamed once
// per pair instead of once per row, and the two accumulation chains pipeline.
// Each panel row's update is addMul2 or addMul (rowops.go), an AVX2 kernel
// where the CPU has one. Zero entries skip their inner sweep entirely (the
// sketch matrices this kernel serves are sparse for the sparse projection
// families); the skip only elides adding ra·row[b] terms that are exactly ±0.
func gramInto(out *Matrix, rows int, row func(int) []float64) {
	c := out.cols
	clear(out.data)
	i := 0
	for ; i+1 < rows; i += 2 {
		row0, row1 := row(i)[:c], row(i + 1)[:c]
		for a := 0; a < c; a++ {
			r0, r1 := row0[a], row1[a]
			orow := out.data[a*c+a : (a+1)*c]
			switch {
			case r0 != 0 && r1 != 0:
				addMul2(orow, row0[a:], row1[a:], r0, r1)
			case r0 != 0:
				addMul(orow, row0[a:], r0)
			case r1 != 0:
				addMul(orow, row1[a:], r1)
			}
		}
	}
	for ; i < rows; i++ {
		r := row(i)[:c]
		for a := 0; a < c; a++ {
			ra := r[a]
			if ra == 0 {
				continue
			}
			addMul(out.data[a*c+a:(a+1)*c], r[a:], ra)
		}
	}
	for b := 1; b < c; b++ {
		brow := out.data[b*c : b*c+b]
		for a := range brow {
			brow[a] = out.data[a*c+b]
		}
	}
}
