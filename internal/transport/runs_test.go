package transport

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// runForms encodes xs, which is not empty, in each form by the format
// comment's rules alone, nil where the form is closed to it.
func runForms(xs []float64) map[byte][]byte {
	raw, compact, ints := []byte{formRaw}, []byte{formCompact}, []byte{formInt}
	for _, x := range xs {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
		u := math.Float64bits(x)
		var be []byte // the byte-reversed bit pattern, big-endian, leading zeros dropped
		for k := 0; k < 8; k++ {
			if b := byte(u >> (8 * k)); len(be) > 0 || b != 0 {
				be = append(be, b)
			}
		}
		if len(be) == 0 || (len(be) == 1 && be[0] < 0x80) {
			compact = append(compact, append(be, 0)[0])
		} else {
			compact = append(append(compact, byte(256-len(be))), be...)
		}
		if ints != nil && x == math.Trunc(x) && math.Abs(x) < 1<<53 && !(x == 0 && math.Signbit(x)) {
			ints = binary.AppendVarint(ints, int64(x))
		} else {
			ints = nil
		}
	}
	out := map[byte][]byte{formRaw: raw, formCompact: compact}
	if ints != nil {
		out[formInt] = ints
	}
	return out
}

// TestFloatRunsRoundTripShortest: every run crosses bit for bit, in the
// shortest form open to it, raw winning a tie and int winning a tie with
// compact.
func TestFloatRunsRoundTripShortest(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	runs := [][]float64{
		{0}, {math.Copysign(0, -1)}, {1 << 53}, {1<<53 - 1, -(1<<53 - 1)},
		{math.NaN()}, {nan, 1}, {1500, math.Copysign(0, -1)},
		{1 << 40, 1 << 50, -(1 << 44)}, {0.5, 0}, {3, 0.25},
		{math.Inf(1), 7}, {math.MaxFloat64, math.SmallestNonzeroFloat64},
	}
	for len(runs) < 2000 {
		xs := make([]float64, 1+rng.Intn(48))
		kind := rng.Intn(5)
		for i := range xs {
			switch kind {
			case 0: // integers up to 2⁵³, of every magnitude
				xs[i] = float64(rng.Int63n(1<<53) >> rng.Intn(53))
				if rng.Intn(2) == 0 {
					xs[i] = -xs[i]
				}
			case 1: // powers of two, where compact beats varints
				xs[i] = math.Ldexp(1, rng.Intn(60))
			case 2: // whole-byte volumes
				xs[i] = math.Round(1e6 * rng.ExpFloat64())
			case 3: // fractions
				xs[i] = rng.NormFloat64()
			default: // a mix, −0 and NaN payloads included
				switch rng.Intn(5) {
				case 0:
					xs[i] = math.Copysign(0, -1)
				case 1:
					xs[i] = math.Float64frombits(0x7ff0_0000_0000_0001 | rng.Uint64()>>13)
				case 2:
					xs[i] = rng.NormFloat64()
				default:
					xs[i] = float64(rng.Intn(1 << 20))
				}
			}
		}
		runs = append(runs, xs)
	}
	for _, xs := range runs {
		got := appendRun(nil, xs)
		forms := runForms(xs)
		want := forms[formRaw]
		if b := forms[formInt]; b != nil && len(b) < len(want) {
			want = b
		}
		if b := forms[formCompact]; len(b) < len(want) {
			want = b
		}
		if string(got) != string(want) {
			t.Fatalf("run %v: sent form %d in %d bytes, want form %d in %d", xs, got[0], len(got), want[0], len(want))
		}
		for form, b := range forms {
			c := codec{b: append([]byte{byte(len(xs))}, b...)}
			var back []float64
			if c.floats(&back); c.err != nil || len(c.b) != 0 || len(back) != len(xs) {
				t.Fatalf("run %v in form %d: %v, %d bytes left, %d values", xs, form, c.err, len(c.b), len(back))
			}
			for i := range xs {
				if math.Float64bits(back[i]) != math.Float64bits(xs[i]) {
					t.Fatalf("run %v in form %d: value %d came back as %v", xs, form, i, back[i])
				}
			}
		}
	}
}

// TestDecodeRefusesBadIntRuns: a varint of 2⁵³ or more in magnitude, one
// that overflows, and a truncated run are ErrBadMessage.
func TestDecodeRefusesBadIntRuns(t *testing.T) {
	for name, vals := range map[string][]byte{
		"2⁵³":       binary.AppendVarint(nil, 1<<53),
		"−2⁵³":      binary.AppendVarint(nil, -1<<53),
		"overflow":  {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"truncated": {0x80},
	} {
		c := codec{b: append([]byte{1, formInt}, vals...)}
		var v []float64
		if c.floats(&v); !errors.Is(c.err, ErrBadMessage) {
			t.Errorf("%s: %v, want ErrBadMessage", name, c.err)
		}
	}
}
