package transport

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// FuzzColumnsFrame feeds hostile bytes to the ColumnsFrame decoder, the part
// of a sketch response a peer controls byte for byte. The invariants: no
// panic; either a typed ErrBadMessage, or columns of one non-zero length
// whose re-encode is the input, byte for byte.
func FuzzColumnsFrame(f *testing.F) {
	f.Add(appendColumns(nil, [][]float64{{1, 2}, {3, 4}}))
	f.Add(appendColumns(nil, [][]float64{{math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN()}}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8})

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr ColumnsFrame
		if err := fr.GobDecode(data); err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("decode error not typed ErrBadMessage: %v", err)
			}
			return
		}
		if !frameable(fr.cols) {
			t.Fatalf("decoded %d columns that are not one non-zero length", len(fr.cols))
		}
		if again := appendColumns(nil, fr.cols); !bytes.Equal(again, data) {
			t.Fatalf("re-encode differs:\n in  %x\n out %x", data, again)
		}
	})
}
