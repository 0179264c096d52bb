// Package ingest is the high-throughput measurement front end of the
// monitor daemon: it turns raw NetFlow v5 datagrams — collected from a UDP
// socket or handed in directly — into the per-interval OD volume vectors
// monitor.Service.Update expects. The paper specifies the local monitor as
// consuming a live measurement stream ("each monitoring point observes the
// traffic ... and updates its summary per arrival"); this package is that
// stream's aggregation stage (see DESIGN.md §12).
//
// The pipeline is: Collector (one UDP read loop, one reused buffer) →
// Pipeline.HandleDatagram (fault injection, decode, sequence tracking,
// epoch assignment, fold into the open epoch's volume row) → epoch rollover
// (the row goes to one bounded FIFO) → Sink (the monitor core), called from
// one delivery goroutine. Everything is stdlib-only and instrumented via
// internal/obs.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Errors returned by the package.
var (
	// ErrDecode indicates a malformed NetFlow v5 datagram.
	ErrDecode = errors.New("ingest: malformed NetFlow v5 datagram")
	// ErrConfig indicates an invalid pipeline or export configuration.
	ErrConfig = errors.New("ingest: invalid configuration")
	// ErrClosed indicates an operation on a closed pipeline or collector.
	ErrClosed = errors.New("ingest: closed")
)

// NetFlow v5 wire-format constants.
const (
	// Version is the NetFlow version this package speaks.
	Version = 5
	// HeaderLen is the fixed v5 header size in bytes.
	HeaderLen = 24
	// RecordLen is the fixed v5 flow-record size in bytes.
	RecordLen = 48
	// MaxRecords is the record-count ceiling per datagram (the v5 export
	// format caps at 30 so a full datagram fits a 1500-byte MTU).
	MaxRecords = 30
	// MaxDatagramLen is the largest well-formed datagram.
	MaxDatagramLen = HeaderLen + MaxRecords*RecordLen
)

// Header is the 24-byte NetFlow v5 export header.
type Header struct {
	// Version must be 5.
	Version uint16
	// Count is the number of flow records in this datagram (1..30).
	Count uint16
	// SysUptime is the exporter's uptime in milliseconds.
	SysUptime uint32
	// UnixSecs/UnixNsecs timestamp the export at the source; the record
	// clock (ClockRecord) derives the epoch index from UnixSecs.
	UnixSecs  uint32
	UnixNsecs uint32
	// FlowSequence is the cumulative count of records exported before this
	// datagram; gaps reveal datagrams lost in flight.
	FlowSequence uint32
	// EngineType/EngineID identify the exporting slot; sequence tracking is
	// per engine.
	EngineType uint8
	EngineID   uint8
	// SamplingInterval packs the sampling mode and rate.
	SamplingInterval uint16
}

// Record is one 48-byte NetFlow v5 flow record. Address and counter fields
// are decoded; the remaining fields are carried so re-encoding round-trips.
type Record struct {
	// SrcAddr/DstAddr key the OD aggregation via the routing table.
	SrcAddr netip.Addr
	DstAddr netip.Addr
	// NextHop is the next-hop router address.
	NextHop netip.Addr
	// Input/Output are SNMP interface indices.
	Input  uint16
	Output uint16
	// Packets and Octets are the flow's totals; Octets feeds the volume
	// accumulators (the paper's per-interval byte counts).
	Packets uint32
	Octets  uint32
	// First/Last are SysUptime timestamps of the flow's first/last packet.
	First uint32
	Last  uint32
	// Transport header fields.
	SrcPort  uint16
	DstPort  uint16
	TCPFlags uint8
	Proto    uint8
	Tos      uint8
	// Routing metadata.
	SrcAS   uint16
	DstAS   uint16
	SrcMask uint8
	DstMask uint8
}

// Datagram is one decoded NetFlow v5 export packet. The Records slice is
// reused across DecodeDatagram calls on the same Datagram, so a zero-value
// Datagram decoded in a loop allocates only on the first (largest) packet.
type Datagram struct {
	Header  Header
	Records []Record
}

// DecodeDatagram parses buf into d. It never panics on hostile input:
// truncated buffers, bad versions, zero or oversized counts, and
// count/length mismatches all return ErrDecode. On error d's contents are
// unspecified.
func DecodeDatagram(buf []byte, d *Datagram) error {
	if len(buf) < HeaderLen {
		return fmt.Errorf("%w: %d bytes, header needs %d", ErrDecode, len(buf), HeaderLen)
	}
	h := &d.Header
	h.Version = binary.BigEndian.Uint16(buf[0:2])
	if h.Version != Version {
		return fmt.Errorf("%w: version %d, want %d", ErrDecode, h.Version, Version)
	}
	h.Count = binary.BigEndian.Uint16(buf[2:4])
	if h.Count == 0 || h.Count > MaxRecords {
		return fmt.Errorf("%w: record count %d outside [1, %d]", ErrDecode, h.Count, MaxRecords)
	}
	if want := HeaderLen + int(h.Count)*RecordLen; len(buf) != want {
		return fmt.Errorf("%w: %d bytes for %d records, want %d", ErrDecode, len(buf), h.Count, want)
	}
	h.SysUptime = binary.BigEndian.Uint32(buf[4:8])
	h.UnixSecs = binary.BigEndian.Uint32(buf[8:12])
	h.UnixNsecs = binary.BigEndian.Uint32(buf[12:16])
	h.FlowSequence = binary.BigEndian.Uint32(buf[16:20])
	h.EngineType = buf[20]
	h.EngineID = buf[21]
	h.SamplingInterval = binary.BigEndian.Uint16(buf[22:24])

	n := int(h.Count)
	if cap(d.Records) < n {
		d.Records = make([]Record, n)
	}
	d.Records = d.Records[:n]
	for i := 0; i < n; i++ {
		b := buf[HeaderLen+i*RecordLen:]
		r := &d.Records[i]
		r.SrcAddr = netip.AddrFrom4([4]byte(b[0:4]))
		r.DstAddr = netip.AddrFrom4([4]byte(b[4:8]))
		r.NextHop = netip.AddrFrom4([4]byte(b[8:12]))
		r.Input = binary.BigEndian.Uint16(b[12:14])
		r.Output = binary.BigEndian.Uint16(b[14:16])
		r.Packets = binary.BigEndian.Uint32(b[16:20])
		r.Octets = binary.BigEndian.Uint32(b[20:24])
		r.First = binary.BigEndian.Uint32(b[24:28])
		r.Last = binary.BigEndian.Uint32(b[28:32])
		r.SrcPort = binary.BigEndian.Uint16(b[32:34])
		r.DstPort = binary.BigEndian.Uint16(b[34:36])
		r.TCPFlags = b[37]
		r.Proto = b[38]
		r.Tos = b[39]
		r.SrcAS = binary.BigEndian.Uint16(b[40:42])
		r.DstAS = binary.BigEndian.Uint16(b[42:44])
		r.SrcMask = b[44]
		r.DstMask = b[45]
	}
	return nil
}

// rec is the compact per-record view the pipeline folds: the OD lookup needs
// only the endpoint addresses, and the volume row only the bytes.
type rec struct {
	src, dst [4]byte
	octets   uint32
}

// recSlab is the fixed-capacity arena one datagram's records decode into. It
// is small enough to live on HandleDatagram's stack, which is what keeps the
// hot path at zero allocations (TestIngestHotPathZeroAlloc).
type recSlab struct {
	n    int
	recs [MaxRecords]rec
}

// decodeRecords is the pipeline's decode hot path: it validates buf exactly
// like DecodeDatagram (same length, version and count checks, so the two
// paths accept and reject identical inputs — pinned by FuzzDecodeDatagram)
// but parses only the fields the fold consumes — endpoint addresses and
// octet counts — straight into slab, skipping the netip.Addr conversions and
// the ten unused per-record fields. It allocates nothing, whatever the
// input.
func decodeRecords(buf []byte, h *Header, slab *recSlab) error {
	if len(buf) < HeaderLen {
		return fmt.Errorf("%w: %d bytes, header needs %d", ErrDecode, len(buf), HeaderLen)
	}
	h.Version = binary.BigEndian.Uint16(buf[0:2])
	if h.Version != Version {
		return fmt.Errorf("%w: version %d, want %d", ErrDecode, h.Version, Version)
	}
	h.Count = binary.BigEndian.Uint16(buf[2:4])
	if h.Count == 0 || h.Count > MaxRecords {
		return fmt.Errorf("%w: record count %d outside [1, %d]", ErrDecode, h.Count, MaxRecords)
	}
	if want := HeaderLen + int(h.Count)*RecordLen; len(buf) != want {
		return fmt.Errorf("%w: %d bytes for %d records, want %d", ErrDecode, len(buf), h.Count, want)
	}
	h.SysUptime = binary.BigEndian.Uint32(buf[4:8])
	h.UnixSecs = binary.BigEndian.Uint32(buf[8:12])
	h.UnixNsecs = binary.BigEndian.Uint32(buf[12:16])
	h.FlowSequence = binary.BigEndian.Uint32(buf[16:20])
	h.EngineType = buf[20]
	h.EngineID = buf[21]
	h.SamplingInterval = binary.BigEndian.Uint16(buf[22:24])

	n := int(h.Count)
	for i := 0; i < n; i++ {
		b := buf[HeaderLen+i*RecordLen : HeaderLen+(i+1)*RecordLen]
		r := &slab.recs[i]
		r.src = [4]byte(b[0:4])
		r.dst = [4]byte(b[4:8])
		r.octets = binary.BigEndian.Uint32(b[20:24])
	}
	slab.n = n
	return nil
}

// AppendDatagram serializes a header and records into dst and returns the
// extended slice. h.Count and h.Version are forced to match; other header
// fields are taken as given. Non-IPv4 record addresses encode as 0.0.0.0
// (the v5 format is IPv4-only).
func AppendDatagram(dst []byte, h Header, recs []Record) ([]byte, error) {
	if len(recs) == 0 || len(recs) > MaxRecords {
		return dst, fmt.Errorf("%w: %d records outside [1, %d]", ErrConfig, len(recs), MaxRecords)
	}
	h.Version = Version
	h.Count = uint16(len(recs))
	var hb [HeaderLen]byte
	binary.BigEndian.PutUint16(hb[0:2], h.Version)
	binary.BigEndian.PutUint16(hb[2:4], h.Count)
	binary.BigEndian.PutUint32(hb[4:8], h.SysUptime)
	binary.BigEndian.PutUint32(hb[8:12], h.UnixSecs)
	binary.BigEndian.PutUint32(hb[12:16], h.UnixNsecs)
	binary.BigEndian.PutUint32(hb[16:20], h.FlowSequence)
	hb[20] = h.EngineType
	hb[21] = h.EngineID
	binary.BigEndian.PutUint16(hb[22:24], h.SamplingInterval)
	dst = append(dst, hb[:]...)
	for i := range recs {
		r := &recs[i]
		var rb [RecordLen]byte
		putAddr4(rb[0:4], r.SrcAddr)
		putAddr4(rb[4:8], r.DstAddr)
		putAddr4(rb[8:12], r.NextHop)
		binary.BigEndian.PutUint16(rb[12:14], r.Input)
		binary.BigEndian.PutUint16(rb[14:16], r.Output)
		binary.BigEndian.PutUint32(rb[16:20], r.Packets)
		binary.BigEndian.PutUint32(rb[20:24], r.Octets)
		binary.BigEndian.PutUint32(rb[24:28], r.First)
		binary.BigEndian.PutUint32(rb[28:32], r.Last)
		binary.BigEndian.PutUint16(rb[32:34], r.SrcPort)
		binary.BigEndian.PutUint16(rb[34:36], r.DstPort)
		rb[37] = r.TCPFlags
		rb[38] = r.Proto
		rb[39] = r.Tos
		binary.BigEndian.PutUint16(rb[40:42], r.SrcAS)
		binary.BigEndian.PutUint16(rb[42:44], r.DstAS)
		rb[44] = r.SrcMask
		rb[45] = r.DstMask
		dst = append(dst, rb[:]...)
	}
	return dst, nil
}

func putAddr4(b []byte, a netip.Addr) {
	if a.Is4() {
		v := a.As4()
		copy(b, v[:])
	}
}

// SeqTracker detects export-sequence gaps per engine. NetFlow v5's
// FlowSequence is the cumulative record count, so the expected sequence of
// datagram k+1 is datagram k's sequence plus its record count; a positive
// difference is the number of records lost in flight.
//
// An exporter has a handful of engines, so the tracker keeps them in a short
// slice it scans rather than a map it hashes into. A stream that cycles
// through many engine ids makes every Observe scan all it has seen (at most
// 65 536).
//
// SeqTracker is not safe for concurrent use; the pipeline serializes calls
// under its ingest lock.
type SeqTracker struct {
	// engines holds the expected FlowSequence of every engine seen so far,
	// in first-seen order.
	engines []engineSeq
}

// engineSeq is one engine (EngineType<<8 | EngineID) and its expected
// FlowSequence.
type engineSeq struct {
	engine uint16
	next   uint32
}

// Observe folds one datagram header in and returns the number of records
// skipped since the previous datagram from the same engine (0 when in
// order; restarts and wraparounds also report 0 rather than a huge gap).
func (s *SeqTracker) Observe(h *Header) (gap uint32) {
	engine := uint16(h.EngineType)<<8 | uint16(h.EngineID)
	next := h.FlowSequence + uint32(h.Count)
	for i := range s.engines {
		e := &s.engines[i]
		if e.engine != engine {
			continue
		}
		diff := h.FlowSequence - e.next // wraparound-safe modular difference
		// Treat a huge forward jump as an exporter restart, not loss.
		if diff > 0 && diff < 1<<30 {
			gap = diff
		}
		e.next = next
		return gap
	}
	s.engines = append(s.engines, engineSeq{engine: engine, next: next})
	return 0
}
