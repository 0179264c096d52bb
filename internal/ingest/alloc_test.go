package ingest

import (
	"net/netip"
	"runtime"
	"testing"
	"time"
)

// TestIngestHotPathZeroAlloc pins the steady-state decode+fold path to zero
// heap allocations per datagram: decodeRecords parses into a slab on
// HandleDatagram's stack and the fold adds into the open epoch's row, which
// exists after the first datagram. A record no prefix covers is counted and
// skipped on the same budget — a miss builds no error.
func TestIngestHotPathZeroAlloc(t *testing.T) {
	stray := netip.MustParseAddr("192.0.2.1") // outside every 10.r.0.0/16
	for _, tt := range []struct {
		name       string
		unroutable bool
	}{
		{"routed", false},
		{"unroutable", true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			p, _ := newTestPipeline(t, nil)
			defer func() { _ = p.Close() }()

			base := int64(1_200_000_000)
			bufs := make([][]byte, 64)
			for i := range bufs {
				r := odRecord(t, i%3, (i+1)%3, 100)
				if tt.unroutable {
					r.SrcAddr = stray
				}
				buf, err := AppendDatagram(nil, Header{UnixSecs: uint32(base), FlowSequence: uint32(i + 1)}, []Record{r})
				if err != nil {
					t.Fatal(err)
				}
				bufs[i] = buf
			}
			i := 0
			avg := testing.AllocsPerRun(200, func() {
				if err := p.HandleDatagram(bufs[i%len(bufs)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if avg != 0 {
				t.Fatalf("ingest hot path allocates %.2f per datagram, want 0", avg)
			}
			if got, want := p.Metrics().Unroutable.Value() > 0, tt.unroutable; got != want {
				t.Fatalf("unroutable records counted: %v, want %v", got, want)
			}
		})
	}
	// One datagram per epoch seals its predecessor. Once a few rows have
	// gone round, the fold takes each new epoch's row from those the sink
	// is done with, so a steady-state seal allocates nothing.
	t.Run("seal", func(t *testing.T) {
		kept := make([]float64, testAggregator(t).NumFlows())
		p, _ := newTestPipeline(t, func(c *Config) {
			c.Sink = func(iv Interval) error {
				copy(kept, iv.Volumes)
				return nil
			}
		})
		defer func() { _ = p.Close() }()
		base := int64(1_200_000_000)
		var bufs [][]byte
		for i := 0; i < 64; i++ {
			bufs = append(bufs, dgram(t, uint32(i), base+int64(i), i%3, (i+1)%3, 100))
		}
		i := 0
		seal := func() {
			if err := p.HandleDatagram(bufs[i]); err != nil {
				t.Fatal(err)
			}
			// Delivery counts an epoch once it has handed the row before
			// it back.
			for p.Metrics().EpochsSealed.Value() < int64(i) {
				runtime.Gosched()
			}
			i++
		}
		for i < 8 {
			seal()
		}
		if avg := testing.AllocsPerRun(50, seal); avg != 0 {
			t.Fatalf("a steady-state seal allocates %.2f times, want 0", avg)
		}
		if kept[(i-2)%3*3+(i-1)%3] != 100 {
			t.Fatalf("the last sealed row is %v", kept)
		}
	})
}

// TestSealedDeliveryAllocatesOnlyTheRow: with tracing off, handing a sealed
// epoch to a sink that copies it out allocates nothing beyond the epoch's
// row, which the fold took and delivery hands back: the seal span's
// attributes are built only when there is a span.
func TestSealedDeliveryAllocatesOnlyTheRow(t *testing.T) {
	kept := make([]float64, testAggregator(t).NumFlows())
	p, _ := newTestPipeline(t, func(c *Config) {
		c.Sink = func(iv Interval) error {
			copy(kept, iv.Volumes)
			return nil
		}
	})
	defer func() { _ = p.Close() }()
	row := make([]float64, len(kept))
	seq := int64(1000)
	avg := testing.AllocsPerRun(100, func() {
		seq++
		p.deliver(seq, sealed{epoch: 1_200_000_000 + seq, row: row, records: 4000 + seq, sealedAt: time.Now()})
	})
	if avg != 0 {
		t.Fatalf("a sealed delivery allocates %.2f times beyond its row, want 0", avg)
	}
}
