package ingest

import "testing"

// TestIngestHotPathZeroAlloc pins the steady-state decode+fold path to zero
// heap allocations per datagram: decodeRecords parses into a slab on
// HandleDatagram's stack and the fold adds into the open epoch's row, which
// exists after the first datagram.
func TestIngestHotPathZeroAlloc(t *testing.T) {
	p, _ := newTestPipeline(t, nil)
	defer func() { _ = p.Close() }()

	base := int64(1_200_000_000)
	bufs := make([][]byte, 64)
	for i := range bufs {
		bufs[i] = dgram(t, uint32(i+1), base, i%3, (i+1)%3, 100)
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
}
