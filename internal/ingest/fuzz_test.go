package ingest

import (
	"testing"
)

// FuzzDecodeDatagram asserts the decoder's contract on arbitrary input:
// malformed datagrams (bad versions, count/length mismatches, truncated
// records, trailing bytes) must return an error — never panic — and
// accepted datagrams must survive a semantic re-encode/re-decode round
// trip.
func FuzzDecodeDatagram(f *testing.F) {
	valid, err := AppendDatagram(nil, Header{
		SysUptime:    1000,
		UnixSecs:     1_200_000_000,
		FlowSequence: 7,
	}, []Record{testRecord(0), testRecord(1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:HeaderLen])
	f.Add(valid[:HeaderLen+RecordLen-1])
	f.Add(append(append([]byte(nil), valid...), 0xff))
	corrupt := append([]byte(nil), valid...)
	corrupt[1] = 9 // bad version
	f.Add(corrupt)

	agg := testAggregator(f)
	f.Fuzz(func(t *testing.T, buf []byte) {
		// The pipeline's batch decoder must agree with the reference decoder
		// on accept/reject and, for accepted datagrams, on every field the
		// fold consumes (header, the flow the endpoint addresses route to,
		// octet counts).
		var slab recSlab
		var sh Header
		serr := decodeRecords(buf, &sh, &slab, agg)
		var d Datagram
		if err := DecodeDatagram(buf, &d); err != nil {
			if serr == nil {
				t.Fatalf("decodeRecords accepted what DecodeDatagram rejected: %v", err)
			}
			return
		}
		if serr != nil {
			t.Fatalf("decodeRecords rejected what DecodeDatagram accepted: %v", serr)
		}
		if sh != d.Header {
			t.Fatalf("decodeRecords header %+v vs %+v", sh, d.Header)
		}
		if slab.n != len(d.Records) {
			t.Fatalf("decodeRecords %d records, DecodeDatagram %d", slab.n, len(d.Records))
		}
		for i := range d.Records {
			r, want := &slab.recs[i], &d.Records[i]
			id, ok := agg.FlowIndex(want.SrcAddr.As4(), want.DstAddr.As4())
			if !ok {
				id = -1
			}
			if r.flow != id || r.octets != want.Octets {
				t.Fatalf("record %d: slab flow %d, %d octets vs %v→%v (flow %d), %d octets", i,
					r.flow, r.octets, want.SrcAddr, want.DstAddr, id, want.Octets)
			}
		}
		// Semantic round trip: whatever decodes must re-encode to a
		// same-length datagram that decodes to identical contents. (Byte
		// equality is too strong — the v5 pad bytes are not represented in
		// Record and re-encode as zero.)
		out, err := AppendDatagram(nil, d.Header, d.Records)
		if err != nil {
			t.Fatalf("accepted datagram failed to re-encode: %v", err)
		}
		if len(out) != len(buf) {
			t.Fatalf("re-encode changed length: %d -> %d", len(buf), len(out))
		}
		var d2 Datagram
		if err := DecodeDatagram(out, &d2); err != nil {
			t.Fatalf("re-encoded datagram rejected: %v", err)
		}
		if d2.Header != d.Header {
			t.Fatalf("header round trip: %+v vs %+v", d.Header, d2.Header)
		}
		for i := range d.Records {
			if d2.Records[i] != d.Records[i] {
				t.Fatalf("record %d round trip: %+v vs %+v", i, d.Records[i], d2.Records[i])
			}
		}
	})
}
