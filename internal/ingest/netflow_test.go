package ingest

import (
	"errors"
	"net/netip"
	"testing"
)

func testRecord(i int) Record {
	return Record{
		SrcAddr:  netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}),
		DstAddr:  netip.AddrFrom4([4]byte{10, 1, 0, byte(i)}),
		NextHop:  netip.AddrFrom4([4]byte{10, 2, 0, 1}),
		Input:    1,
		Output:   2,
		Packets:  uint32(10 + i),
		Octets:   uint32(1000 + i),
		First:    100,
		Last:     200,
		SrcPort:  uint16(1024 + i),
		DstPort:  443,
		TCPFlags: 0x18,
		Proto:    6,
		Tos:      0,
		SrcAS:    64512,
		DstAS:    64513,
		SrcMask:  16,
		DstMask:  16,
	}
}

func TestDatagramRoundTrip(t *testing.T) {
	h := Header{
		SysUptime:        123456,
		UnixSecs:         1200000000,
		UnixNsecs:        789,
		FlowSequence:     42,
		EngineType:       1,
		EngineID:         7,
		SamplingInterval: 0x0100,
	}
	recs := make([]Record, 5)
	for i := range recs {
		recs[i] = testRecord(i)
	}
	buf, err := AppendDatagram(nil, h, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != HeaderLen+5*RecordLen {
		t.Fatalf("encoded %d bytes, want %d", len(buf), HeaderLen+5*RecordLen)
	}
	var d Datagram
	if err := DecodeDatagram(buf, &d); err != nil {
		t.Fatal(err)
	}
	wantH := h
	wantH.Version = Version
	wantH.Count = 5
	if d.Header != wantH {
		t.Fatalf("header round trip: got %+v want %+v", d.Header, wantH)
	}
	for i := range recs {
		if d.Records[i] != recs[i] {
			t.Fatalf("record %d round trip: got %+v want %+v", i, d.Records[i], recs[i])
		}
	}
}

func TestDecodeDatagramRejectsMalformed(t *testing.T) {
	valid, err := AppendDatagram(nil, Header{UnixSecs: 1}, []Record{testRecord(0), testRecord(1)})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"short header":     valid[:HeaderLen-1],
		"truncated record": valid[:HeaderLen+RecordLen-1],
		"trailing bytes":   append(append([]byte(nil), valid...), 0),
		"bad version": func() []byte {
			b := append([]byte(nil), valid...)
			b[1] = 9
			return b
		}(),
		"zero count": func() []byte {
			b := append([]byte(nil), valid...)
			b[2], b[3] = 0, 0
			return b
		}(),
		"oversized count": func() []byte {
			b := append([]byte(nil), valid...)
			b[2], b[3] = 0, MaxRecords+1
			return b
		}(),
	}
	var d Datagram
	for name, buf := range cases {
		if err := DecodeDatagram(buf, &d); !errors.Is(err, ErrDecode) {
			t.Errorf("%s: got %v, want ErrDecode", name, err)
		}
	}
	if err := DecodeDatagram(valid, &d); err != nil {
		t.Fatalf("valid datagram rejected: %v", err)
	}
}

func TestDecodeDatagramReusesRecordSlice(t *testing.T) {
	big, _ := AppendDatagram(nil, Header{}, make([]Record, 20))
	small, _ := AppendDatagram(nil, Header{}, make([]Record, 3))
	var d Datagram
	if err := DecodeDatagram(big, &d); err != nil {
		t.Fatal(err)
	}
	ptr := &d.Records[0]
	if err := DecodeDatagram(small, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Records) != 3 {
		t.Fatalf("len = %d, want 3", len(d.Records))
	}
	if &d.Records[0] != ptr {
		t.Fatal("small decode reallocated the record slice")
	}
}

func TestAppendDatagramRejectsBadCounts(t *testing.T) {
	if _, err := AppendDatagram(nil, Header{}, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := AppendDatagram(nil, Header{}, make([]Record, MaxRecords+1)); !errors.Is(err, ErrConfig) {
		t.Fatalf("oversized: %v", err)
	}
}

func TestSeqTracker(t *testing.T) {
	var s SeqTracker
	h := func(engine uint8, seq uint32, count uint16) *Header {
		return &Header{EngineID: engine, FlowSequence: seq, Count: count}
	}
	if gap := s.Observe(h(0, 100, 10)); gap != 0 {
		t.Fatalf("first datagram gap = %d", gap)
	}
	if gap := s.Observe(h(0, 110, 5)); gap != 0 {
		t.Fatalf("in-order gap = %d", gap)
	}
	if gap := s.Observe(h(0, 145, 5)); gap != 30 {
		t.Fatalf("gap = %d, want 30", gap)
	}
	// Independent engines track independently.
	if gap := s.Observe(h(1, 7, 1)); gap != 0 {
		t.Fatalf("new engine gap = %d", gap)
	}
	if gap := s.Observe(h(0, 150, 1)); gap != 0 {
		t.Fatalf("post-gap in-order gap = %d", gap)
	}
	// An exporter restart (sequence far below expected) reports no gap.
	if gap := s.Observe(h(0, 0, 1)); gap != 0 {
		t.Fatalf("restart gap = %d", gap)
	}
}

func TestParseClock(t *testing.T) {
	for _, c := range []Clock{ClockRecord, ClockWall} {
		got, err := ParseClock(c.String())
		if err != nil || got != c {
			t.Fatalf("round trip %v: got %v, %v", c, got, err)
		}
	}
	if _, err := ParseClock("bogus"); !errors.Is(err, ErrConfig) {
		t.Fatalf("bogus clock: %v", err)
	}
}
