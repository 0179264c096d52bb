package ingest

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"streampca/internal/traffic"
)

// benchDatagrams encodes a ring of full (30-record) datagrams whose
// addresses all route through the Abilene topology, every record carrying
// the given export timestamp. Cycling the ring keeps the benchmark's
// working set out of cache-resident triviality without paying encode cost
// in the timed loop.
func benchDatagrams(b *testing.B, n int, unixSecs uint32) [][]byte {
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
	grams := benchDatagrams(b, 64, 1_200_000_000)
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

// BenchmarkIngestPipeline measures end-to-end datagram throughput —
// decode, sequence tracking, shard dispatch and OD aggregation — through a
// running pipeline at 1, 2 and 4 shards. One iteration ingests one full
// datagram (30 records); the reported records/s is the aggregate rate the
// producer sustained, with PolicyBlock coupling it to the shards'
// consumption. All datagrams land in a single epoch so the timed loop
// measures the per-record hot path; sealing is exercised once at Close,
// outside the timer (rollover is a once-per-interval event, not a
// throughput factor).
// BenchmarkIngestCollectors measures front-end scalability: N concurrent
// producers (standing in for N SO_REUSEPORT collector read loops, minus the
// kernel socket — loopback UDP would add loss and jitter, not signal) feed
// HandleDatagram simultaneously. Decode runs outside the pipeline lock, so
// added collectors should raise aggregate throughput until the lock or the
// shards saturate; the reported records/s across the collectors cells is the
// ingest-scaling curve.
func BenchmarkIngestCollectors(b *testing.B) {
	agg, err := traffic.NewAbileneAggregator()
	if err != nil {
		b.Fatal(err)
	}
	grams := benchDatagrams(b, 64, 1_200_000_000)
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("collectors=%d", n), func(b *testing.B) {
			p, err := NewPipeline(Config{
				Aggregator: agg,
				Interval:   300 * time.Second,
				Shards:     4,
				QueueLen:   256,
				Sink:       func(Interval) error { return nil },
			})
			if err != nil {
				b.Fatal(err)
			}
			var fed atomic.Int64
			b.SetBytes(int64(len(grams[0])))
			b.ReportAllocs()
			b.SetParallelism(n)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if err := p.HandleDatagram(grams[i%len(grams)]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
				fed.Add(int64(i))
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)*MaxRecords/b.Elapsed().Seconds(), "records/s")
			if err := p.Close(); err != nil {
				b.Fatal(err)
			}
			if got := p.Metrics().Records.Value(); got != fed.Load()*MaxRecords {
				b.Fatalf("pipeline folded %d records, fed %d", got, fed.Load()*MaxRecords)
			}
			if un := p.Metrics().Unroutable.Value(); un != 0 {
				b.Fatalf("%d unroutable records", un)
			}
		})
	}
}

func BenchmarkIngestPipeline(b *testing.B) {
	agg, err := traffic.NewAbileneAggregator()
	if err != nil {
		b.Fatal(err)
	}
	grams := benchDatagrams(b, 64, 1_200_000_000)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p, err := NewPipeline(Config{
				Aggregator: agg,
				Interval:   300 * time.Second,
				Shards:     shards,
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
			rate := float64(b.N) * MaxRecords / b.Elapsed().Seconds()
			b.ReportMetric(rate, "records/s")
			if err := p.Close(); err != nil {
				b.Fatal(err)
			}
			if got := p.Metrics().Records.Value(); got != int64(b.N)*MaxRecords {
				b.Fatalf("pipeline folded %d records, fed %d", got, int64(b.N)*MaxRecords)
			}
			if un := p.Metrics().Unroutable.Value(); un != 0 {
				b.Fatalf("%d unroutable records: the benchmark must exercise the full aggregation path", un)
			}
		})
	}
}
