package mat

import "fmt"

// tileBytes is the input footprint one Mul k-block targets: half of a
// conservative 256KB per-core L2, leaving the other half for the output rows
// the block streams against.
const tileBytes = 128 << 10

// Mul returns the matrix product m·o as a new matrix. The inner dimension is
// blocked into L2-sized tiles of o's rows, so a hot panel of o is streamed
// across every output row instead of all of o being re-streamed per output
// row. Per output entry the k-summation order is ascending regardless of the
// blocking.
func (m *Matrix) Mul(o *Matrix) (*Matrix, error) {
	if m.cols != o.rows {
		return nil, fmt.Errorf("%w: mul %dx%d by %dx%d", ErrShape, m.rows, m.cols, o.rows, o.cols)
	}
	out := NewMatrix(m.rows, o.cols)
	// Block o's rows so the panel o[k0:k1) stays cache-resident while the
	// output rows are swept. Pure function of the shapes.
	kb := o.rows
	if o.cols > 0 {
		if kb = tileBytes / (8 * o.cols); kb < 16 {
			kb = 16
		}
		if kb > o.rows {
			kb = o.rows
		}
	}
	for k0 := 0; k0 < m.cols; k0 += kb {
		k1 := k0 + kb
		if k1 > m.cols {
			k1 = m.cols
		}
		for i := 0; i < m.rows; i++ {
			mrow := m.data[i*m.cols+k0 : i*m.cols+k1]
			orow := out.data[i*o.cols : (i+1)*o.cols]
			for kk, mv := range mrow {
				if mv == 0 {
					continue
				}
				k := k0 + kk
				okrow := o.data[k*o.cols : (k+1)*o.cols]
				for j, ov := range okrow {
					orow[j] += mv * ov
				}
			}
		}
	}
	return out, nil
}

// Gram returns mᵀ·m (the c×c Gram matrix): one pass over the input rows
// accumulates the upper triangle, which is then mirrored into the lower one.
func (m *Matrix) Gram() *Matrix {
	c := m.cols
	out := NewMatrix(c, c)
	gramAccumulate(m, out.data)
	for b := 1; b < c; b++ {
		brow := out.data[b*c : b*c+b]
		for a := range brow {
			brow[a] = out.data[a*c+b]
		}
	}
	return out
}

// gramAccumulate folds every input row into the upper triangle of the c×c
// panel: out[a][b] += row[a]·row[b] for b ≥ a. Rows are consumed in pairs —
// the panel is streamed once per pair instead of once per row, and the two
// accumulation chains pipeline. Zero entries skip their inner sweep entirely
// (the sketch matrices this kernel serves are sparse for the sparse
// projection families); the skip only elides adding ra·row[b] terms that are
// exactly ±0.
func gramAccumulate(m *Matrix, out []float64) {
	c := m.cols
	i := 0
	for ; i+1 < m.rows; i += 2 {
		row0 := m.data[i*c : (i+1)*c]
		row1 := m.data[(i+1)*c : (i+2)*c]
		for a := 0; a < c; a++ {
			r0, r1 := row0[a], row1[a]
			orow := out[a*c+a : (a+1)*c]
			switch {
			case r0 != 0 && r1 != 0:
				for b := range orow {
					orow[b] += r0*row0[a+b] + r1*row1[a+b]
				}
			case r0 != 0:
				for b := range orow {
					orow[b] += r0 * row0[a+b]
				}
			case r1 != 0:
				for b := range orow {
					orow[b] += r1 * row1[a+b]
				}
			}
		}
	}
	for ; i < m.rows; i++ {
		row := m.data[i*c : (i+1)*c]
		for a := 0; a < c; a++ {
			ra := row[a]
			if ra == 0 {
				continue
			}
			orow := out[a*c+a : (a+1)*c]
			for b := range orow {
				orow[b] += ra * row[a+b]
			}
		}
	}
}
