package transport

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

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
			if b, err = appendFrame(b, &envs[i]); err != nil {
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
			once, err := appendFrame(nil, &e)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			var back Envelope
			if _, err := decodeFrame(once, &back); err != nil {
				t.Fatalf("decode of a re-encoded frame: %v", err)
			}
			if twice, _ := appendFrame(nil, &back); !bytes.Equal(once, twice) {
				t.Fatalf("frame changed in a round trip:\n %x\n %x", once, twice)
			}
		}
	})
}
