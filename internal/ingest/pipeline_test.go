package ingest

import (
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streampca/internal/faults"
	"streampca/internal/flow"
	"streampca/internal/traffic"
)

// testAggregator builds the synthetic 3-router (9-flow) aggregation plane.
func testAggregator(t testing.TB) *flow.Aggregator {
	t.Helper()
	tbl, err := traffic.BuildRoutingTable(3)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := flow.NewAggregator(tbl, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// sinkRecorder collects sealed intervals (the pipeline delivers from its own
// goroutine).
type sinkRecorder struct {
	mu        sync.Mutex
	intervals []Interval
	err       error // returned to the pipeline when set
}

func (s *sinkRecorder) sink(iv Interval) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.intervals = append(s.intervals, iv)
	return s.err
}

func (s *sinkRecorder) snapshot() []Interval {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Interval(nil), s.intervals...)
}

// odRecord builds one record of flow (o→d) carrying octets bytes.
func odRecord(t testing.TB, o, d int, octets uint32) Record {
	t.Helper()
	src, err := traffic.RouterAddr(o, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := traffic.RouterAddr(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	return Record{SrcAddr: src, DstAddr: dst, Packets: 1, Octets: octets}
}

// dgram builds a single-record datagram: flow (o→d), octets bytes, epoch
// given in seconds (1s test interval).
func dgram(t testing.TB, seq uint32, unixSecs int64, o, d int, octets uint32) []byte {
	t.Helper()
	buf, err := AppendDatagram(nil, Header{
		UnixSecs:     uint32(unixSecs),
		FlowSequence: seq,
	}, []Record{odRecord(t, o, d, octets)})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func newTestPipeline(t testing.TB, mod func(*Config)) (*Pipeline, *sinkRecorder) {
	t.Helper()
	rec := &sinkRecorder{}
	cfg := Config{
		Aggregator: testAggregator(t),
		Interval:   time.Second,
		Sink:       rec.sink,
	}
	if mod != nil {
		mod(&cfg)
	}
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, rec
}

func TestPipelineSealsAndMerges(t *testing.T) {
	p, rec := newTestPipeline(t, nil)
	base := int64(1_200_000_000)
	// Epoch base: flows 0→1 (100 B) and 1→2 (50 B); epoch base+1: 0→1
	// again; then an epoch base+2 datagram forces base and base+1 sealed.
	feed := [][]byte{
		dgram(t, 0, base, 0, 1, 100),
		dgram(t, 1, base, 1, 2, 50),
		dgram(t, 2, base+1, 0, 1, 75),
		dgram(t, 3, base+2, 2, 2, 10),
	}
	for _, b := range feed {
		if err := p.HandleDatagram(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	got := rec.snapshot()
	if len(got) != 3 {
		t.Fatalf("sealed %d intervals, want 3: %+v", len(got), got)
	}
	for i, iv := range got {
		if iv.Seq != int64(i+1) {
			t.Fatalf("interval %d: seq %d, want %d", i, iv.Seq, i+1)
		}
		if iv.Epoch != base+int64(i) {
			t.Fatalf("interval %d: epoch %d, want %d", i, iv.Epoch, base+int64(i))
		}
		if len(iv.Volumes) != 9 {
			t.Fatalf("interval %d: %d volumes", i, len(iv.Volumes))
		}
	}
	// Flow 0→1 is index 1, 1→2 index 5, 2→2 index 8.
	if got[0].Volumes[1] != 100 || got[0].Volumes[5] != 50 {
		t.Fatalf("epoch 0 volumes wrong: %v", got[0].Volumes)
	}
	if got[0].Records != 2 || got[0].Partial {
		t.Fatalf("epoch 0 meta wrong: %+v", got[0])
	}
	if got[1].Volumes[1] != 75 {
		t.Fatalf("epoch 1 volumes wrong: %v", got[1].Volumes)
	}
	if got[2].Volumes[8] != 10 || !got[2].Partial {
		t.Fatalf("final interval should be partial with the 2→2 record: %+v", got[2])
	}
	if v := p.Metrics().Records.Value(); v != 4 {
		t.Fatalf("records metric = %d, want 4", v)
	}
	if v := p.Metrics().EpochsSealed.Value(); v != 3 {
		t.Fatalf("epochs sealed = %d, want 3", v)
	}
	if v := p.Metrics().PartialEpochs.Value(); v != 1 {
		t.Fatalf("partial epochs = %d, want 1", v)
	}
}

func TestPipelineEmptyEpochsKeepSeqContiguous(t *testing.T) {
	p, rec := newTestPipeline(t, nil)
	base := int64(1_000_000)
	if err := p.HandleDatagram(dgram(t, 0, base, 0, 0, 5)); err != nil {
		t.Fatal(err)
	}
	// Jump 4 epochs ahead: the 3 quiet epochs must still be delivered so
	// the monitor's interval index never skips.
	if err := p.HandleDatagram(dgram(t, 1, base+4, 0, 0, 7)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	got := rec.snapshot()
	if len(got) != 5 {
		t.Fatalf("sealed %d intervals, want 5", len(got))
	}
	for i, iv := range got {
		if iv.Seq != int64(i+1) || iv.Epoch != base+int64(i) {
			t.Fatalf("interval %d: seq %d epoch %d", i, iv.Seq, iv.Epoch)
		}
	}
	for _, i := range []int{1, 2, 3} {
		if got[i].Records != 0 {
			t.Fatalf("quiet epoch %d has %d records", i, got[i].Records)
		}
	}
}

func TestPipelineLatenessSlack(t *testing.T) {
	p, rec := newTestPipeline(t, func(c *Config) {
		c.Lateness = 2 * time.Second // 2 epochs of slack at 1s intervals
	})
	base := int64(500_000)
	seq := uint32(0)
	send := func(sec int64, o, d int, octets uint32) {
		t.Helper()
		if err := p.HandleDatagram(dgram(t, seq, sec, o, d, octets)); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	send(base, 0, 1, 10)
	send(base+2, 0, 1, 1) // watermark base+2: base not yet sealed (slack 2)
	if v := p.Metrics().EpochsSealed.Value(); v != 0 {
		t.Fatalf("sealed %d epochs before slack elapsed", v)
	}
	send(base, 1, 2, 20)  // late but within slack: accepted
	send(base+3, 0, 1, 1) // watermark base+3 = base+1+slack: seals base
	waitCounter(t, func() int64 { return p.Metrics().EpochsSealed.Value() }, 1)
	send(base, 2, 1, 99) // now beyond slack: dropped late
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	got := rec.snapshot()
	if len(got) != 4 {
		t.Fatalf("sealed %d intervals, want 4", len(got))
	}
	if got[0].Volumes[1] != 10 || got[0].Volumes[5] != 20 {
		t.Fatalf("slack-window merge wrong: %v", got[0].Volumes)
	}
	if v := p.Metrics().LateRecords.Value(); v != 1 {
		t.Fatalf("late records = %d, want 1", v)
	}
}

func TestPipelineFutureJumpRejected(t *testing.T) {
	p, rec := newTestPipeline(t, func(c *Config) { c.MaxEpochJump = 8 })
	base := int64(900_000)
	if err := p.HandleDatagram(dgram(t, 0, base, 0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.HandleDatagram(dgram(t, 1, base+1000, 0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if v := p.Metrics().FutureDrops.Value(); v != 1 {
		t.Fatalf("future drops = %d, want 1", v)
	}
	if got := rec.snapshot(); len(got) != 1 {
		t.Fatalf("sealed %d intervals, want 1 (no empty-epoch flood)", len(got))
	}
}

func TestPipelineCountsDecodeErrorsAndUnroutable(t *testing.T) {
	p, rec := newTestPipeline(t, nil)
	if err := p.HandleDatagram([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Address 192.0.2.1 matches no 10.r/16 prefix.
	buf, err := AppendDatagram(nil, Header{UnixSecs: 77777}, []Record{{
		SrcAddr: mustAddr(t, 192, 0, 2, 1),
		DstAddr: mustAddr(t, 10, 0, 0, 1),
		Octets:  123,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.HandleDatagram(buf); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if v := p.Metrics().DecodeErrors.Value(); v != 1 {
		t.Fatalf("decode errors = %d, want 1", v)
	}
	if v := p.Metrics().Unroutable.Value(); v != 1 {
		t.Fatalf("unroutable = %d, want 1", v)
	}
	got := rec.snapshot()
	if len(got) != 1 || got[0].Records != 0 {
		t.Fatalf("unroutable record leaked into volumes: %+v", got)
	}
}

func TestPipelineSequenceGaps(t *testing.T) {
	p, _ := newTestPipeline(t, nil)
	if err := p.HandleDatagram(dgram(t, 100, 1000, 0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.HandleDatagram(dgram(t, 131, 1000, 0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if v := p.Metrics().SeqGapRecords.Value(); v != 30 {
		t.Fatalf("sequence gap records = %d, want 30", v)
	}
}

// TestPipelineBlockPolicyLossless: a sink that does not return stalls
// HandleDatagram once sealBacklog sealed intervals wait behind it, and
// releasing it loses nothing.
func TestPipelineBlockPolicyLossless(t *testing.T) {
	rec := &sinkRecorder{}
	release := make(chan struct{})
	p, _ := newTestPipeline(t, func(c *Config) {
		c.Sink = func(iv Interval) error {
			<-release
			return rec.sink(iv)
		}
	})
	// One datagram per epoch: each seals its predecessor. The sink holds the
	// first sealed interval, sealBacklog more fit the channel, and the
	// datagram after that must block.
	const n = sealBacklog + 4
	var fed atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := p.HandleDatagram(dgram(t, uint32(i), 42+int64(i), 0, 1, 2)); err != nil {
				done <- err
				return
			}
			fed.Add(1)
		}
		done <- nil
	}()
	// Datagram k seals epoch k-1, so datagrams 0..sealBacklog+1 get through
	// (one interval in the sink, sealBacklog queued) and the next one stalls.
	const admitted = sealBacklog + 2
	waitCounter(t, fed.Load, admitted)
	time.Sleep(20 * time.Millisecond)
	if got := fed.Load(); got != admitted {
		t.Fatalf("fed %d datagrams past a blocked sink, want %d", got, admitted)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	got := rec.snapshot()
	if len(got) != n {
		t.Fatalf("sealed %d intervals, want %d", len(got), n)
	}
	for i, iv := range got {
		if iv.Seq != int64(i+1) || iv.Records != 1 || iv.Volumes[1] != 2 {
			t.Fatalf("interval %d lost its record: %+v", i, iv)
		}
	}
}

func TestPipelineFaultInjection(t *testing.T) {
	plan := faults.MustPlan(1,
		faults.Rule{Dir: faults.DirRecv, Type: "netflow", After: 2, Count: 3, Drop: true},
		faults.Rule{Dir: faults.DirRecv, Type: "netflow", After: 8, Count: 2, Corrupt: true},
	)
	p, rec := newTestPipeline(t, func(c *Config) { c.Faults = plan })
	for i := 0; i < 20; i++ {
		if err := p.HandleDatagram(dgram(t, uint32(i), 42, 0, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	m := p.Metrics()
	if v := m.FaultDrops.Value(); v != 3 {
		t.Fatalf("fault drops = %d, want 3", v)
	}
	if v := m.DecodeErrors.Value(); v != 2 {
		t.Fatalf("decode errors = %d, want 2 (corrupted)", v)
	}
	got := rec.snapshot()
	if len(got) != 1 || got[0].Records != 15 {
		t.Fatalf("surviving records = %+v, want 15", got)
	}
}

func TestPipelineFaultDisconnect(t *testing.T) {
	plan := faults.MustPlan(1,
		faults.Rule{Dir: faults.DirRecv, Type: "netflow", After: 1, Disconnect: true})
	p, _ := newTestPipeline(t, func(c *Config) { c.Faults = plan })
	if err := p.HandleDatagram(dgram(t, 0, 42, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.HandleDatagram(dgram(t, 1, 42, 0, 1, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("disconnect outcome: got %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineClosedRejectsDatagrams(t *testing.T) {
	p, _ := newTestPipeline(t, nil)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.HandleDatagram(dgram(t, 0, 42, 0, 1, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err) // double Close is a no-op
	}
}

func TestPipelineSinkErrorsCounted(t *testing.T) {
	p, rec := newTestPipeline(t, nil)
	rec.err = fmt.Errorf("sink says no")
	if err := p.HandleDatagram(dgram(t, 0, 42, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if v := p.Metrics().SinkErrors.Value(); v != 1 {
		t.Fatalf("sink errors = %d, want 1", v)
	}
}

func TestPipelineConfigValidation(t *testing.T) {
	agg := testAggregator(t)
	sink := func(Interval) error { return nil }
	bad := []Config{
		{Interval: time.Second, Sink: sink},                                          // nil aggregator
		{Aggregator: agg, Sink: sink},                                                // zero interval
		{Aggregator: agg, Interval: time.Microsecond, Sink: sink},                    // sub-ms interval
		{Aggregator: agg, Interval: time.Second},                                     // nil sink
		{Aggregator: agg, Interval: time.Second, Sink: sink, Lateness: -time.Second}, // negative slack
		{Aggregator: agg, Interval: time.Second, Sink: sink, MaxEpochJump: -1},       // bad jump
		{Aggregator: agg, Interval: time.Second, Sink: sink, Clock: Clock(99)},       // bad clock
	}
	for i, cfg := range bad {
		if _, err := NewPipeline(cfg); !errors.Is(err, ErrConfig) {
			t.Fatalf("config %d: got %v, want ErrConfig", i, err)
		}
	}
}

func TestPipelineWallClockSealsWithoutTraffic(t *testing.T) {
	p, rec := newTestPipeline(t, func(c *Config) {
		c.Clock = ClockWall
		c.Interval = 20 * time.Millisecond
	})
	if err := p.HandleDatagram(dgram(t, 0, 42, 0, 1, 9)); err != nil {
		t.Fatal(err)
	}
	// No further traffic: the wall ticker must still seal the interval.
	waitCounter(t, func() int64 { return p.Metrics().EpochsSealed.Value() }, 1)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	got := rec.snapshot()
	if len(got) == 0 || got[0].Volumes[1] != 9 {
		t.Fatalf("wall clock lost the record: %+v", got)
	}
}

func waitCounter(t testing.TB, get func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for get() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want ≥ %d", get(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func mustAddr(t testing.TB, a, b, c, d byte) netip.Addr {
	t.Helper()
	return netip.AddrFrom4([4]byte{a, b, c, d})
}

// settledGoroutines reads the goroutine count once goroutines that earlier
// tests have already told to exit are gone.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestPipelineConcurrentFeedMatchesSerialFold feeds one pipeline from K
// goroutines at once, epoch by epoch. Within an epoch the goroutines race
// datagrams for every epoch the lateness slack still admits; after a barrier
// (the watermark has then reached the epoch) they race one late datagram, one
// future jump and one with an unroutable record each. Which datagrams are
// admitted is fixed by that construction, so the sink must see exactly the
// serial fold of them, numbered 1, 2, 3, …, the open epochs as Partial, and
// the drop counters must balance.
func TestPipelineConcurrentFeedMatchesSerialFold(t *testing.T) {
	const (
		feeders = 6
		epochs  = 6
		maxJump = 4
		base    = int64(1_000_000)
	)
	for _, slack := range []int64{0, 2} {
		t.Run(fmt.Sprintf("slack=%d", slack), func(t *testing.T) {
			before := settledGoroutines()
			p, rec := newTestPipeline(t, func(c *Config) {
				c.Lateness = time.Duration(slack) * time.Second
				c.MaxEpochJump = maxJump
			})
			if got := runtime.NumGoroutine(); got != before+1 {
				t.Fatalf("a running pipeline owns %d goroutines, want 1", got-before)
			}

			type want struct {
				row     [9]float64
				records int64
			}
			expect := make([]want, epochs)
			var late, future, unroutable, decoded int64
			encode := func(epoch int64, recs ...Record) []byte {
				buf, err := AppendDatagram(nil, Header{UnixSecs: uint32(base + epoch)}, recs)
				if err != nil {
					t.Fatal(err)
				}
				decoded += int64(len(recs))
				return buf
			}
			admit := func(epoch int64, o, d int, octets uint32) Record {
				expect[epoch].row[o*3+d] += float64(octets)
				expect[epoch].records++
				return odRecord(t, o, d, octets)
			}

			// open[e][g] and after[e][g] are what feeder g sends before and
			// after epoch e's barrier.
			open := make([][][][]byte, epochs)
			after := make([][][][]byte, epochs)
			for e := int64(0); e < epochs; e++ {
				open[e] = make([][][]byte, feeders)
				after[e] = make([][][]byte, feeders)
				for g := 0; g < feeders; g++ {
					for j := int64(0); j <= slack+1; j++ {
						// The last j is 0 back: every feeder pushes the
						// watermark to e before the barrier.
						target := e - (slack+1-j)%(slack+1)
						if target < 0 {
							target = 0
						}
						octets := uint32(1 + g + int(j))
						open[e][g] = append(open[e][g], encode(target,
							admit(target, g%3, int(j)%3, octets),
							admit(target, int(j)%3, g%3, 2*octets)))
					}
					after[e][g] = [][]byte{
						encode(e-slack-1, odRecord(t, 0, 0, 1000)),
						encode(e+maxJump+1, odRecord(t, 0, 0, 1000)),
						encode(e, admit(e, g%3, g%3, 7), Record{
							SrcAddr: mustAddr(t, 192, 0, 2, 1),
							DstAddr: mustAddr(t, 10, 0, 0, 1),
							Octets:  1000,
						}),
					}
					late++
					future++
					unroutable++
				}
			}

			race := func(part [][][]byte) {
				var wg sync.WaitGroup
				for g := range part {
					wg.Add(1)
					go func(bufs [][]byte) {
						defer wg.Done()
						for _, b := range bufs {
							if err := p.HandleDatagram(b); err != nil {
								t.Error(err)
							}
						}
					}(part[g])
				}
				wg.Wait()
			}
			for e := range open {
				race(open[e])
				race(after[e])
			}

			onTime := int64(epochs) - 1 - slack
			waitCounter(t, func() int64 { return p.Metrics().EpochsSealed.Value() }, onTime)
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			got := rec.snapshot()
			if len(got) != epochs {
				t.Fatalf("sealed %d intervals, want %d", len(got), epochs)
			}
			var folded int64
			for i, iv := range got {
				if iv.Seq != int64(i+1) || iv.Epoch != base+int64(i) {
					t.Fatalf("interval %d: seq %d epoch %d", i, iv.Seq, iv.Epoch-base)
				}
				if iv.Partial != (int64(i) >= onTime) {
					t.Errorf("interval %d: partial %v with %d sealed on time", i, iv.Partial, onTime)
				}
				if iv.Records != expect[i].records {
					t.Errorf("interval %d: %d records, serial fold %d", i, iv.Records, expect[i].records)
				}
				for f, v := range iv.Volumes {
					if v != expect[i].row[f] {
						t.Errorf("interval %d flow %d: volume %v, serial fold %v", i, f, v, expect[i].row[f])
					}
				}
				folded += iv.Records
			}
			m := p.Metrics()
			if m.LateRecords.Value() != late || m.FutureDrops.Value() != future || m.Unroutable.Value() != unroutable {
				t.Errorf("late %d future %d unroutable %d, want %d %d %d",
					m.LateRecords.Value(), m.FutureDrops.Value(), m.Unroutable.Value(), late, future, unroutable)
			}
			if m.Records.Value() != decoded || decoded-late-future-unroutable != folded {
				t.Errorf("decoded %d (fed %d) - late %d - future %d - unroutable %d != folded %d",
					m.Records.Value(), decoded, late, future, unroutable, folded)
			}
			if left := settledGoroutines() - before; left != 0 {
				t.Errorf("%d goroutines survive Close", left)
			}
		})
	}
}
