package ingest

import (
	"net/netip"
	"testing"
	"time"

	"streampca/internal/traffic"
)

// benchDatagrams encodes a ring of full (30-record) datagrams whose
// addresses route through the Abilene topology, every record carrying the
// given export timestamp; when strayEvery > 0, every strayEvery-th record's
// source is outside every router prefix instead. Cycling the ring keeps the
// benchmark's working set out of cache-resident triviality without paying
// encode cost in the timed loop.
func benchDatagrams(b *testing.B, n int, unixSecs uint32, strayEvery int) [][]byte {
	b.Helper()
	numRouters := len(traffic.AbileneRouters)
	out := make([][]byte, 0, n)
	var seq uint32
	for k := 0; k < n; k++ {
		recs := make([]Record, MaxRecords)
		for i := range recs {
			o := (k*MaxRecords + i) % numRouters
			d := (k + i) % numRouters
			src, err := traffic.RouterAddr(o, uint16(k*31+i))
			if err != nil {
				b.Fatal(err)
			}
			dst, err := traffic.RouterAddr(d, uint16(k*17+i))
			if err != nil {
				b.Fatal(err)
			}
			if strayEvery > 0 && (k*MaxRecords+i)%strayEvery == strayEvery-1 {
				src = netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})
			}
			recs[i] = Record{
				SrcAddr: src,
				DstAddr: dst,
				Packets: 1,
				Octets:  1500,
				Proto:   6,
			}
		}
		buf, err := AppendDatagram(nil, Header{
			UnixSecs:     unixSecs,
			FlowSequence: seq,
		}, recs)
		if err != nil {
			b.Fatal(err)
		}
		seq += MaxRecords
		out = append(out, buf)
	}
	return out
}

// BenchmarkIngestDecode measures the raw NetFlow v5 decode path on full
// 30-record datagrams, reusing one Datagram so the steady state is
// allocation-free.
func BenchmarkIngestDecode(b *testing.B) {
	grams := benchDatagrams(b, 64, 1_200_000_000, 0)
	var d Datagram
	b.SetBytes(int64(len(grams[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeDatagram(grams[i%len(grams)], &d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*MaxRecords/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkIngestPipeline measures datagram throughput through a running
// pipeline: decode, sequence tracking and the OD fold. One iteration ingests
// one full datagram (30 records). All datagrams land in a single epoch so
// the timed loop measures the per-record hot path; sealing is exercised once
// at Close, outside the timer (rollover is a once-per-interval event, not a
// throughput factor). The routed cell is the deployed shape; in the other a
// tenth of the records match no prefix, which the fold counts and skips.
func BenchmarkIngestPipeline(b *testing.B) {
	for _, c := range []struct {
		name       string
		strayEvery int
	}{
		{"routed", 0},
		{"unroutable=1in10", 10},
	} {
		b.Run(c.name, func(b *testing.B) {
			agg, err := traffic.NewAbileneAggregator()
			if err != nil {
				b.Fatal(err)
			}
			grams := benchDatagrams(b, 64, 1_200_000_000, c.strayEvery)
			p, err := NewPipeline(Config{
				Aggregator: agg,
				Interval:   300 * time.Second,
				Sink:       func(Interval) error { return nil },
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(grams[0])))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.HandleDatagram(grams[i%len(grams)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*MaxRecords/b.Elapsed().Seconds(), "records/s")
			if err := p.Close(); err != nil {
				b.Fatal(err)
			}
			fed := int64(b.N) * MaxRecords
			if got := p.Metrics().Records.Value(); got != fed {
				b.Fatalf("pipeline folded %d records, fed %d", got, fed)
			}
			var want int64
			if c.strayEvery > 0 {
				// A datagram is 30 records, a multiple of 10, so each one
				// carries exactly a tenth of strays.
				want = fed / int64(c.strayEvery)
			}
			if un := p.Metrics().Unroutable.Value(); un != want {
				b.Fatalf("%d unroutable records, want %d", un, want)
			}
		})
	}
}
