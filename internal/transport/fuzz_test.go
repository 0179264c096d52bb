package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"

	"streampca/internal/sketch"
)

// unhexF is unhex for a fuzz target's seeds.
func unhexF(f *testing.F, s string) []byte {
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzDecodeMessage feeds hostile bytes to a Conn's reader, which is
// everything a peer controls: the preamble, then frames of any kind. The
// invariants: no panic; a read either fails typed (ErrVersion, ErrBadMessage
// or, for a stream that ends mid-frame, ErrClosed) or yields a valid
// envelope whose frame decodes to an envelope with the same frame, bit for
// bit.
func FuzzDecodeMessage(f *testing.F) {
	stream := func(envs ...Envelope) []byte {
		b := preamble[:]
		for i := range envs {
			var err error
			if b, err = appendFrame(b, nil, &envs[i]); err != nil {
				f.Fatal(err)
			}
		}
		return b
	}
	var all []Envelope
	for _, g := range goldenFrames {
		f.Add(stream(g.env))
		all = append(all, g.env)
	}
	f.Add(stream(all...))
	f.Add(stream(Envelope{Volume: &VolumeReport{Volumes: []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN()}}}))
	// Int runs: the widest integers the form takes, and whole bytes beside
	// a −0 and a NaN, which close it.
	f.Add(stream(Envelope{Volume: &VolumeReport{MonitorID: "m1", Volumes: []float64{1<<53 - 1, -(1<<53 - 1)}}}))
	f.Add(stream(Envelope{Volume: &VolumeReport{MonitorID: "m1", Volumes: []float64{1500, math.Copysign(0, -1), math.NaN()}}}))
	// Implicit-list volume reports whose int run holds 2⁵³, which the
	// decoder refuses, a varint that runs past 64 bits, and one that spells
	// 0 in five bytes.
	volume := func(run []byte) []byte {
		payload := append(unhexF(f, "02 6d31 12 00 01 02"), run...)
		return append(binary.LittleEndian.AppendUint32(append(preamble[:], kindVolume), uint32(len(payload))), payload...)
	}
	f.Add(volume(binary.AppendVarint(nil, 1<<53)))
	f.Add(volume(unhexF(f, "ffffffffffffffffffff01")))
	f.Add(volume(unhexF(f, "8080808000"))) // 0, overlong but in range
	// A response whose middle column is no exact sum and names no row sums:
	// sums, raw, then sums over the first column's row sums.
	mixed := sumsReport(6, []float64{2, -4, 0}, []int64{41, 7, 9}, [][]float64{{5, -9, 2}, {1, 1, 1}, {0, 3, -2}})
	mixed.Sketches[1][2] = 0.5
	mixed.RowSumOf[1] = -1
	f.Add(stream(Envelope{Response: &SketchResponse{RequestID: 9, MonitorID: "mix", Report: mixed}}))
	// Residuals of one, three and seven bytes: D = (8, 2), (70002, −2) and
	// (2⁴⁷, 0).
	f.Add(stream(Envelope{Response: &SketchResponse{RequestID: 9, MonitorID: "w",
		Report: sumsReport(4, []float64{2, -2}, []int64{10, 6, -6}, [][]float64{{13, -3}, {70005, -5}, {1<<47 - 3, 3}})}}))
	// A volume sum whose varint overflows 64 bits; a residual at the top of
	// its range (Z′_0 = 2⁵⁰ − 6), and one past it.
	for _, cols := range []string{
		"01 08 ffffffffffffffffffff01 01 08 02",
		"01 08 14 07 f5ffffffffff03 02000000000000",
		"01 08 14 07 f6ffffffffff03 02000000000000",
	} {
		payload := unhexF(f, "03 02 6d31 00 00 0a 02 00 02 02 01 02 04 03 02 00 00 00 "+cols+" 01 08 0c 01 04 04 00 00 0000000000000000 00")
		f.Add(append(binary.LittleEndian.AppendUint32(append(preamble[:], kindResponse), uint32(len(payload))), payload...))
	}
	// Version 7: a request since an interval, and a response whose sums
	// column sits beside delta columns of two deltas.
	f.Add(stream(Envelope{Request: &SketchRequest{RequestID: 5, Since: 1 << 40}}))
	deltas := sumsReport(4, []float64{2, -2}, []int64{10, 6, 2}, [][]float64{{13, -3}, {7, 1}, {1, 1}})
	deltas.Since, deltas.DeltaOf = 3, []int{-1, 0, 1}
	deltas.Deltas = []sketch.Delta{{Entered: []int64{3, 4}}, {Entered: []int64{4}, Left: []int64{1, 2}}}
	deltas.Sketches[1], deltas.Sketches[2] = []float64{-7, 1 << 40}, []float64{3, 0, -(1<<53 - 1)}
	f.Add(stream(Envelope{Response: &SketchResponse{RequestID: 9, MonitorID: "d", Report: deltas}}))
	// Deltas the decoder refuses: a time after the interval, times out of
	// order, and a column naming a delta past the end.
	for _, d := range []string{"01 0e 01 06 00 | 02 00 02 04", "01 0e 02 02 00 00 | 02 00 02 04", "01 0e 01 00 00 | 02 01 02"} {
		payload := unhexF(f, strings.ReplaceAll("03 02 6d31 00 00 12 01 00 01 00 00 "+d+" 00 00 0000000000000000 00", "|", ""))
		f.Add(append(binary.LittleEndian.AppendUint32(append(preamble[:], kindResponse), uint32(len(payload))), payload...))
	}
	f.Add([]byte{})
	f.Add(preamble[:4])
	f.Add([]byte("SPCA\x01\x03\x01\x00\x00\x00\x2a"))
	f.Add([]byte("SPCA\x02\x03\x01\x00\x00\x04\x2a"))
	f.Add([]byte("SPCA\x02\x04\x03\x00\x00\x00\x00\x00\x05"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := &splitStream{}
		s.in.Write(data)
		c := NewConnWithMetrics(s, nil)
		for {
			e, err := c.Recv()
			if err != nil {
				if !errors.Is(err, ErrVersion) && !errors.Is(err, ErrBadMessage) && !errors.Is(err, ErrClosed) {
					t.Fatalf("read error not typed: %v", err)
				}
				return
			}
			if err := e.Validate(); err != nil {
				t.Fatalf("decoded an invalid envelope: %v", err)
			}
			once, err := appendFrame(nil, nil, &e)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			var back Envelope
			if _, err := decodeFrame(once, &back); err != nil {
				t.Fatalf("decode of a re-encoded frame: %v", err)
			}
			if twice, _ := appendFrame(nil, nil, &back); !bytes.Equal(once, twice) {
				t.Fatalf("frame changed in a round trip:\n %x\n %x", once, twice)
			}
		}
	})
}
