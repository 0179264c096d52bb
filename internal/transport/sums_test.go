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
	"streampca/internal/vh"
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
// cut short, is ErrBadMessage. The golden frame and the cases that end in
// "accepted" decode. Both columns run over R′ = (2, −2) with c′ = 4, so
// Z′_k = D_k + round(μ·R′_k) and |Z′_k| + |μ·R′_k| must stay below 2⁵⁰.
func TestDecodeRefusesBadSums(t *testing.T) {
	const rs, second = "01 02 04 03 | 02 00 00", " | 01 08 0c 01 04 04"
	for _, tc := range []struct {
		name, cols string
		ok         bool
	}{
		{"golden", rs + " | 01 08 14 01 08 02" + second, true},
		{"negative count", rs + " | 01 07 14 01 08 02" + second, false},
		{"row sum above the count", "01 02 0c 03 | 02 00 00 | 01 08 14 01 08 02" + second, false},
		{"row sum of the other parity", "01 02 02 03 | 02 00 00 | 01 08 14 01 08 02" + second, false},
		{"row sum the second column's count cannot hold", rs + " | 01 08 14 01 08 02 | 01 02 0c 01 04 04", false},
		// R′_0 = 2⁵³, zigzag 2⁵⁴.
		{"row sum at 2^53", "01 02 80808080808080 20 03 | 02 00 00 | 01 08 14 01 08 02" + second, false},
		{"sums without row sums", "00 | 00 | 01 08 14 01 08 02" + second, false},
		{"sums whose row sums are unknown", "01 02 04 03 | 02 01 00 | 01 08 14 01 08 02" + second, false},
		{"row sums index past the end", "01 02 04 03 | 02 02 00 | 01 08 14 01 08 02" + second, false},
		{"one index for two columns", "01 02 04 03 | 01 00 | 01 08 14 01 08 02" + second, false},
		// S′ = 10, μ·R′ = (5, −5): D_0 = 2⁵⁰ − 11 gives Z′_0 = 2⁵⁰ − 6, the
		// largest in range; one more is past it, and D_0 = 2⁵⁰ − 5 puts Z′_0
		// at 2⁵⁰. D_1 = −2⁵⁰ + 11 gives Z′_1 = −2⁵⁰ + 6.
		{"residual at the top, accepted", rs + " | 01 08 14 07 f5ffffffffff03 02000000000000" + second, true},
		{"residual past the top", rs + " | 01 08 14 07 f6ffffffffff03 02000000000000" + second, false},
		{"projection sum at 2^50", rs + " | 01 08 14 07 fbffffffffff03 02000000000000" + second, false},
		{"residual at the bottom, accepted", rs + " | 01 08 14 07 08000000000000 0b0000000000fc" + second, true},
		{"residual past the bottom", rs + " | 01 08 14 07 08000000000000 0a0000000000fc" + second, false},
		// S′ = 2⁵⁰ − 4, μ·R′ = ±(2⁴⁹ − 2): one-byte residuals, yet D_0 = 3
		// is the largest that keeps Z′_0 in range.
		{"mean near 2^48, accepted", rs + " | 01 08 f8ffffffffffff03 01 03 00" + second, true},
		{"mean near 2^48, residual past it", rs + " | 01 08 f8ffffffffffff03 01 04 00" + second, false},
		{"mean at 2^48", rs + " | 01 08 8080808080808004 01 00 00" + second, false},
		{"overflowing varint", rs + " | 01 08 ffffffffffffffffffff01 01 08 02" + second, false},
		{"width 0", rs + " | 01 08 14 00 08 02" + second, false},
		{"width 8", rs + " | 01 08 14 08 0800000000000000 0200000000000000" + second, false},
		{"integers cut short", rs + " | 01 08 14 07 0800", false},
		{"unknown column form", rs + " | 02 08 14 01 08 02" + second, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			paths(t, func() []byte {
				var e Envelope
				_, err := decodeFrame(sumsFrame(t, tc.cols), &e)
				if tc.ok && err != nil {
					t.Fatalf("decode: %v", err)
				}
				if !tc.ok && !errors.Is(err, ErrBadMessage) {
					t.Fatalf("decode: %v, want ErrBadMessage", err)
				}
				return nil
			})
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

// widths returns the byte width each column of rep is sent at as sums, 0
// for a column sent raw.
func widths(rep *sketch.Snapshot) []int {
	var out []int
	fit := rowFit{row: -1}
	for i := range rep.Sketches {
		c := codec{enc: true}
		c.appendColumn(rep, i, &fit)
		if c.b[0] != colSums {
			out = append(out, 0)
			continue
		}
		b := c.b[1:]
		for range 2 { // c′ and S′
			_, n := binary.Varint(b)
			b = b[n:]
		}
		out = append(out, int(b[0]))
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
// 2³², so residuals 1 to 5 bytes wide, intervals skipped, a flow's first element
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
			for i, w := range widths(&merged) {
				if w == 0 {
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

// TestFractionalVolumesCrossRaw: a column that is no exact integer sum, as a
// window of fractional volumes would give, crosses raw, still bit for bit.
// Monitors refuse such volumes (vh.CheckVolume), so the columns are built
// here: a mean that no whole sum over its count gives, and a ẑ_k that no
// integer Z′_k rebuilds.
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
		if err := rp.Update(int64(s+1), []float64{1500 * float64(s), 3e6 + 7*float64(s*s)}); err != nil {
			t.Fatal(err)
		}
	}
	rep := rp.Snapshot()
	if w := widths(&rep); w[0] == 0 || w[1] == 0 {
		t.Fatalf("whole-byte columns crossed raw: widths %v", w)
	}
	rep.Means[0] += 0.25
	rep.Sketches[1][3] += math.Pi
	paths(t, func() []byte {
		got, size := roundTrip(t, rep)
		sameReport(t, got, rep)
		if w := widths(&rep); w[0] != 0 || w[1] != 0 || size < 2*24*8 {
			t.Fatalf("fractional columns crossed as sums (%d B): %+v", size, got)
		}
		return nil
	})
}

// residualColumn returns l projection sums Z′_k = round(μ·R′_k) + D_k over
// random row sums R′ of count's parity, whose residuals D_k all take w bytes
// and have the sign opposite round(μ·R′_k), so |Z′_k| < 2⁴⁸, and the row sums.
func residualColumn(rng *rand.Rand, l, w int, count, sum int64) (z, rs []float64) {
	mean := vh.Mean(float64(sum), count)
	lo, hi := int64(0), int64(1)<<(8*w-1)
	if w > 1 {
		lo = 1<<(8*w-9) + 1
	}
	hi = min(hi, 1<<48)
	for range l {
		r := int64(0)
		if count > 0 {
			r = count - 2*rng.Int63n(count+1)
		}
		round := math.Round(float64(mean * float64(r)))
		d := lo + rng.Int63n(hi-lo)
		if round > 0 || (round == 0 && rng.Intn(2) == 0) {
			d = -d
		}
		rs = append(rs, float64(r))
		z = append(z, round+float64(d))
	}
	return z, rs
}

// TestResidualsRoundTripAtEveryWidth: columns whose residuals take w = 1 to
// 7 bytes cross as sums of width w, bit for bit, on both paths: byte-count
// windows, negative volume sums, a window with no element (c′ = 0, so
// μ = 0), and sums just below 2⁴⁷, the largest the encoder takes, where
// |μ·R′_k| is largest too.
func TestResidualsRoundTripAtEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, tc := range []struct {
		name       string
		count, sum int64
	}{
		{"byte counts", 40, 40 * 1_234_567},
		{"negative volumes", 41, -41*987_654 - 3},
		{"no elements", 0, 0},
		{"sum below 2^47", 3, 1<<47 - 5},
		{"sum above -2^47", 4, -(1<<47 - 7)},
	} {
		for w := 1; w <= 7; w++ {
			const l = 37
			rep := sketch.Snapshot{Interval: tc.count + 1}
			for range 3 {
				z, rs := residualColumn(rng, l, w, tc.count, tc.sum)
				col := sumsReport(tc.count, rs, []int64{tc.sum}, [][]float64{z})
				rep.FlowIDs = append(rep.FlowIDs, len(rep.FlowIDs))
				rep.Sketches = append(rep.Sketches, col.Sketches[0])
				rep.Means = append(rep.Means, col.Means[0])
				rep.Counts = append(rep.Counts, tc.count)
				rep.RowSumOf = append(rep.RowSumOf, len(rep.RowSums))
				rep.RowSums = append(rep.RowSums, rs)
			}
			frames := paths(t, func() []byte {
				for i, got := range widths(&rep) {
					if got != w {
						t.Fatalf("%s: column %d of %d-byte residuals sent at width %d", tc.name, i, w, got)
					}
				}
				got, _ := roundTrip(t, rep)
				sameReport(t, got, rep)
				b, err := appendFrame(nil, &Envelope{Response: &SketchResponse{Report: rep}})
				if err != nil {
					t.Fatal(err)
				}
				return b
			})
			if len(frames) == 2 && !bytes.Equal(frames[0], frames[1]) {
				t.Fatalf("%s, width %d: the AVX2 kernels sent\n%x\nthe Go loops\n%x", tc.name, w, frames[1], frames[0])
			}
		}
	}
}

// TestSpikeWidensOnlyItsColumn: one spike in a flow's window widens that
// flow's residuals and leaves every other column's width as it was.
func TestSpikeWidensOnlyItsColumn(t *testing.T) {
	gen, err := randproj.NewGenerator(randproj.Config{Seed: 64, SketchLen: 100})
	if err != nil {
		t.Fatal(err)
	}
	run := func(spike float64) []int {
		rp, err := sketch.NewRandProj(sketch.Config{FlowIDs: []int{0, 1, 2, 3}, WindowLen: 30, Gen: gen})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(64))
		vols := make([]float64, 4)
		for step := range 40 {
			for i := range vols {
				vols[i] = float64(1_000_000 + rng.Intn(2000))
			}
			if step == 25 {
				vols[2] += spike
			}
			if err := rp.Update(int64(step+1), vols); err != nil {
				t.Fatal(err)
			}
		}
		rep := rp.Snapshot()
		return widths(&rep)
	}
	quiet, spiked := run(0), run(5e8)
	for i := range quiet {
		if i == 2 && spiked[i] <= quiet[i] || i != 2 && spiked[i] != quiet[i] || quiet[i] == 0 {
			t.Fatalf("widths %v without the spike in flow 2, %v with it", quiet, spiked)
		}
	}
}

// TestSumsKernelsMatchGoLoops holds each AVX2 kernel to its Go loop, bit
// for bit and byte for byte, at every width it takes, lengths 0 to 67 and
// four alignments of its operands: residuals on columns that rebuild, some
// with a sum past 2⁵¹ or one element off by an ulp (refused), pack into
// w ≤ 3 bytes from 4-byte slots (nothing written past them), and sumsInto on
// residuals that take w bytes, some out of range at w = 7 (refused).
func TestSumsKernelsMatchGoLoops(t *testing.T) {
	if !mat.UsesAVX2() {
		t.Skip("no AVX2 kernels on this CPU")
	}
	defer func() { useAVX2 = true }()
	rng := rand.New(rand.NewSource(64))
	// same runs f on the Go loops, then on the kernels, and fails unless
	// both return the same bytes.
	same := func(what string, n, off, w int, f func() []byte) {
		t.Helper()
		useAVX2 = false
		want := f()
		useAVX2 = true
		if got := f(); !bytes.Equal(got, want) {
			t.Fatalf("%s, length %d at offset %d, width %d: kernel\n%x\nGo loop\n%x", what, n, off, w, got, want)
		}
	}
	for n := 0; n <= 67; n++ {
		for off := range 4 {
			for w := 1; w <= 7; w++ {
				count := int64(1 + rng.Intn(60))
				sum := rng.Int63n(1<<40) - 1<<39
				z, rs := residualColumn(rng, n+off, w, count, sum)
				mean, scale := vh.Mean(float64(sum), count), vh.Scale(n)
				if n > 0 && rng.Intn(4) == 0 {
					// A sum past 2⁵¹, where the residual is no longer Z′_k's.
					z[off+rng.Intn(n)] = float64((1<<51 + rng.Int63n(1<<52)) * (1 - 2*rng.Int63n(2)))
				}
				col := make([]float64, n+off)
				for k := range col {
					col[k] = vh.Centred(z[k], rs[k], mean, scale)
				}
				if n > 0 && rng.Intn(4) == 0 {
					k := off + rng.Intn(n)
					col[k] = math.Nextafter(col[k], math.Inf(1))
				}
				same("residuals", n, off, w, func() []byte {
					out := make([]byte, off+8*n)
					acc, ok := residuals(out[off:], col[off:], rs[off:], mean, 4)
					if !ok {
						return nil
					}
					return binary.LittleEndian.AppendUint64(out[:off+4*n], acc)
				})
				if w < 4 {
					src := make([]byte, off+8*n)
					rng.Read(src)
					same("pack", n, off, w, func() []byte {
						b := bytes.Clone(src)
						pack(b[off:], n, w)
						return append(b[:off+w*n], b[off+4*n:]...)
					})
				}
				// w-byte residuals at the head of a frame's tail; at w = 7
				// some Z′_k may be out of range.
				packed := []byte{byte(w)}
				for k := range n {
					d := int64(z[off+k] - math.Round(float64(mean*rs[off+k])))
					if w == 7 && rng.Intn(8) == 0 {
						d = 1<<55 - 1 - rng.Int63n(1<<50)
					}
					packed = binary.LittleEndian.AppendUint64(packed, uint64(d))[:1+w*(k+1)]
				}
				packed = append(packed, make([]byte, 8)...)
				same("sumsInto", n, off, w, func() []byte {
					dst := make([]float64, n+off)
					rest, ok := sumsInto(dst[off:], packed, rs[off:], mean, float64(count))
					if !ok {
						return nil
					}
					out := []byte{byte(len(rest))}
					for _, x := range dst {
						out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
					}
					return out
				})
			}
		}
	}
}

// TestSumsPastTheRangeCrossRaw: a column with a residual outside
// [−2⁴⁸, 2⁴⁸), which the decoder might not take back, crosses raw, and one
// at its ends as 7-byte sums, bit for bit, on both paths. At c′ = 0 the
// residuals are Z′ itself.
func TestSumsPastTheRangeCrossRaw(t *testing.T) {
	for _, tc := range []struct {
		zk float64
		w  int
	}{{1<<48 - 1, 7}, {-(1 << 48), 7}, {1 << 48, 0}, {-(1<<48 + 1), 0}, {1<<50 + 3, 0}, {-(1<<52 + 8), 0}} {
		rep := sumsReport(0, []float64{0, 0}, []int64{0}, [][]float64{{tc.zk, 5}})
		paths(t, func() []byte {
			if w := widths(&rep); w[0] != tc.w {
				t.Fatalf("Z′ = (%v, 5) sent %d bytes wide, want %d (0: raw)", tc.zk, w[0], tc.w)
			}
			got, _ := roundTrip(t, rep)
			sameReport(t, got, rep)
			return nil
		})
	}
}

// BenchmarkSketchResponseCodec encodes and decodes one monitor's pull
// response, 27 flows at l = 100 over a whole-byte window of 144 (sums), or
// the same with means no whole sum gives, as a fractional window's are
// (raw), into a reused envelope as a Conn does.
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
					vols[i] = float64(rng.Int63n(4e6))
				}
				if err := rp.Update(int64(t+1), vols); err != nil {
					b.Fatal(err)
				}
			}
			rep := rp.Snapshot()
			for i := range rep.Means {
				rep.Means[i] += form.frac
			}
			env := Envelope{Response: &SketchResponse{RequestID: 1, MonitorID: "m", Report: rep}}
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
