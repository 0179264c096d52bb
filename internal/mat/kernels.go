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
		orow := out.data[i*o.cols : (i+1)*o.cols]
		for k, mv := range m.data[i*m.cols : (i+1)*m.cols] {
			if mv == 0 {
				continue
			}
			for j, ov := range o.data[k*o.cols : (k+1)*o.cols] {
				orow[j] += mv * ov
			}
		}
	}
	return out, nil
}

// Gram returns mᵀ·m (the c×c Gram matrix): one pass over the input rows
// accumulates the upper triangle, which is then mirrored into the lower one.
func (m *Matrix) Gram() *Matrix {
	out := NewMatrix(m.cols, m.cols)
	gramInto(out, m.rows, m.RowView)
	return out
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
