package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"streampca/internal/mat"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
)

// sumsFrame is the response/sums golden frame with its payload's column
// bytes replaced by cols (hex, spaced at will), the length recomputed.
func sumsFrame(t *testing.T, cols string) []byte {
	t.Helper()
	payload := "03 02 6d31 00 00 | 0a 02 00 02 | 02 | " + cols + " | 00 | 00 | 0000000000000000 | 00"
	b, err := hex.DecodeString(strings.NewReplacer(" ", "", "|", "").Replace(payload))
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.LittleEndian.AppendUint32([]byte{kindResponse}, uint32(len(b))), b...)
}

// TestDecodeRefusesBadSums: a column of sums that no window can produce,
// or names no row sums, or one whose varints overflow or whose integers are
// cut short, is ErrBadMessage. The first case is the golden frame itself,
// which decodes.
func TestDecodeRefusesBadSums(t *testing.T) {
	const rs, second = "01 02 04 03 | 02 00 00", " | 01 08 0c 01 07 01"
	for _, tc := range []struct {
		name, cols string
		ok         bool
	}{
		{"golden", rs + " | 01 08 14 01 0d fd" + second, true},
		{"negative count", rs + " | 01 07 14 01 0d fd" + second, false},
		{"row sum above the count", "01 02 0c 03 | 02 00 00 | 01 08 14 01 0d fd" + second, false},
		{"row sum of the other parity", "01 02 02 03 | 02 00 00 | 01 08 14 01 0d fd" + second, false},
		{"row sum the second column's count cannot hold", rs + " | 01 08 14 01 0d fd | 01 02 0c 01 07 01", false},
		// R′_0 = 2⁵³, zigzag 2⁵⁴.
		{"row sum at 2^53", "01 02 80808080808080 20 03 | 02 00 00 | 01 08 14 01 0d fd" + second, false},
		{"sums without row sums", "00 | 00 | 01 08 14 01 0d fd" + second, false},
		{"sums whose row sums are unknown", "01 02 04 03 | 02 01 00 | 01 08 14 01 0d fd" + second, false},
		{"row sums index past the end", "01 02 04 03 | 02 02 00 | 01 08 14 01 0d fd" + second, false},
		{"one index for two columns", "01 02 04 03 | 01 00 | 01 08 14 01 0d fd" + second, false},
		// Z′_0 = 2⁵⁰ in 7 bytes.
		{"projection sum at 2^50", rs + " | 01 08 14 07 00000000000004 fdffffffffffff" + second, false},
		{"overflowing varint", rs + " | 01 08 ffffffffffffffffffff01 01 0d fd" + second, false},
		{"width 0", rs + " | 01 08 14 00 0d fd" + second, false},
		{"width 8", rs + " | 01 08 14 08 0d00000000000000 fdffffffffffffff" + second, false},
		{"integers cut short", rs + " | 01 08 14 07 0d00", false},
		{"unknown column form", rs + " | 02 08 14 01 0d fd" + second, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e Envelope
			_, err := decodeFrame(sumsFrame(t, tc.cols), &e)
			if tc.ok && err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrBadMessage) {
				t.Fatalf("decode: %v, want ErrBadMessage", err)
			}
		})
	}
}

// roundTrip encodes rep as a response frame and decodes it into a fresh
// report.
func roundTrip(t *testing.T, rep sketch.Snapshot) (sketch.Snapshot, int) {
	t.Helper()
	b, err := appendFrame(nil, &Envelope{Response: &SketchResponse{RequestID: 1, MonitorID: "m", Report: rep}})
	if err != nil {
		t.Fatal(err)
	}
	var e Envelope
	if _, err := decodeFrame(b, &e); err != nil {
		t.Fatal(err)
	}
	return e.Response.Report, len(b)
}

// sameReport fails t unless got carries want's columns, means and counts
// bit for bit.
func sameReport(t *testing.T, got, want sketch.Snapshot) {
	t.Helper()
	if !sameBits(got.Sketches, want.Sketches) || !sameBits([][]float64{got.Means}, [][]float64{want.Means}) {
		t.Fatalf("columns or means changed in a round trip:\n sent %v %v\n got  %v %v", want.Sketches, want.Means, got.Sketches, got.Means)
	}
	if len(got.Counts) != len(want.Counts) {
		t.Fatalf("counts %v, sent %v", got.Counts, want.Counts)
	}
	for i := range got.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("counts %v, sent %v", got.Counts, want.Counts)
		}
	}
}

// forms returns the form each column of rep is sent in.
func forms(rep *sketch.Snapshot) []byte {
	var out []byte
	fit := rowFit{row: -1}
	for i := range rep.Sketches {
		c := codec{enc: true}
		c.appendColumn(rep, i, &fit)
		out = append(out, c.b[0])
	}
	return out
}

// paths runs f on the Go loops and, where the CPU has them, on the AVX2
// kernels, and returns what each returned.
func paths(t *testing.T, f func() []byte) [][]byte {
	t.Helper()
	have := useAVX2
	defer func() { useAVX2 = have }()
	var out [][]byte
	for _, avx := range []bool{false, true} {
		if avx && !mat.UsesAVX2() {
			continue
		}
		useAVX2 = avx
		out = append(out, f())
	}
	return out
}

// TestWholeByteWindowsCrossAsSums is the codec's property over what
// monitors produce: for random whole-byte windows — volumes up to 2⁸ to
// 2³², so every width S′ takes, intervals skipped, a flow's first element
// (count 0 without it), two monitors of different histories merged, so two
// R′ alternate — every column crosses as sums, decoding returns the
// columns, means and counts bit for bit, and the Go loops and the AVX2
// kernels send the same bytes.
func TestWholeByteWindowsCrossAsSums(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := range 60 {
		l := 1 + rng.Intn(70)
		window := 1 + rng.Intn(40)
		top := int64(1) << (8 + rng.Intn(25))
		gen, err := randproj.NewGenerator(randproj.Config{Seed: rng.Uint64(), SketchLen: l})
		if err != nil {
			t.Fatal(err)
		}
		var snaps []sketch.Snapshot
		for mon := range 2 {
			flows := []int{mon, mon + 2, mon + 4}
			rp, err := sketch.NewRandProj(sketch.Config{FlowIDs: flows, WindowLen: window, Gen: gen})
			if err != nil {
				t.Fatal(err)
			}
			// Each monitor skips intervals at random; on some trials monitor
			// 1 takes a single one.
			steps := 1 + rng.Intn(3*window)
			if trial%5 == 0 && mon == 1 {
				steps = 1
			}
			var now int64
			for range steps {
				vols := make([]float64, len(flows))
				for i := range vols {
					vols[i] = float64(rng.Int63n(top + 1))
				}
				now += 1 + int64(rng.Intn(2+mon))
				if err := rp.Update(now, vols); err != nil {
					t.Fatal(err)
				}
			}
			snaps = append(snaps, rp.Snapshot())
		}
		merged, err := sketch.MergeColumns(snaps, l)
		if err != nil {
			t.Fatal(err)
		}
		frames := paths(t, func() []byte {
			got, _ := roundTrip(t, merged)
			sameReport(t, got, merged)
			for i, form := range forms(&merged) {
				if form != colSums {
					t.Fatalf("trial %d: flow %d crossed raw", trial, merged.FlowIDs[i])
				}
			}
			b, err := appendFrame(nil, &Envelope{Response: &SketchResponse{Report: merged}})
			if err != nil {
				t.Fatal(err)
			}
			return b
		})
		if len(frames) == 2 && !bytes.Equal(frames[0], frames[1]) {
			t.Fatalf("trial %d: the AVX2 kernels sent\n%x\nthe Go loops\n%x", trial, frames[1], frames[0])
		}
	}
}

// TestFractionalVolumesCrossRaw: a window of fractional volumes is no exact
// integer sum, so its columns cross raw, still bit for bit.
func TestFractionalVolumesCrossRaw(t *testing.T) {
	gen, err := randproj.NewGenerator(randproj.Config{Seed: 5, SketchLen: 24})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := sketch.NewRandProj(sketch.Config{FlowIDs: []int{0, 1}, WindowLen: 16, Gen: gen})
	if err != nil {
		t.Fatal(err)
	}
	for s := range 20 {
		if err := rp.Update(int64(s+1), []float64{1500.25 * float64(s), 3e6 + math.Pi}); err != nil {
			t.Fatal(err)
		}
	}
	rep := rp.Snapshot()
	paths(t, func() []byte {
		got, size := roundTrip(t, rep)
		sameReport(t, got, rep)
		if f := forms(&rep); f[0] != colRaw || f[1] != colRaw || size < 2*24*8 {
			t.Fatalf("fractional columns crossed as sums (%d B): %+v", size, got)
		}
		return nil
	})
}

// BenchmarkSketchResponseCodec encodes and decodes one monitor's pull
// response, 27 flows at l = 100 over a whole-byte window of 144 (sums) or
// a fractional one (raw), into a reused envelope as a Conn does.
func BenchmarkSketchResponseCodec(b *testing.B) {
	for _, form := range []struct {
		name string
		frac float64
	}{{"sums", 0}, {"raw", 0.5}} {
		b.Run(form.name, func(b *testing.B) {
			gen, err := randproj.NewGenerator(randproj.Config{Seed: 60, SketchLen: 100})
			if err != nil {
				b.Fatal(err)
			}
			flows := make([]int, 27)
			for i := range flows {
				flows[i] = 3 * i
			}
			rp, err := sketch.NewRandProj(sketch.Config{FlowIDs: flows, WindowLen: 144, Gen: gen})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(60))
			vols := make([]float64, len(flows))
			for t := range 150 {
				for i := range vols {
					vols[i] = float64(rng.Int63n(4e6)) + form.frac
				}
				if err := rp.Update(int64(t+1), vols); err != nil {
					b.Fatal(err)
				}
			}
			env := Envelope{Response: &SketchResponse{RequestID: 1, MonitorID: "m", Report: rp.Snapshot()}}
			var buf []byte
			into := Envelope{Response: new(SketchResponse)}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if buf, err = appendFrame(buf[:0], &env); err != nil {
					b.Fatal(err)
				}
				if _, err := decodeFrame(buf, &into); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(buf)), "B/frame")
		})
	}
}
