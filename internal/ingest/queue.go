package ingest

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Policy selects what happens when a shard queue is full and another batch
// arrives. Control tokens (epoch seals, flushes) are exempt: they are never
// dropped, whatever the policy, because losing one would wedge an epoch.
type Policy int

const (
	// PolicyBlock stalls the producer until the shard drains — lossless,
	// and the backpressure propagates to the UDP socket (the kernel then
	// drops, which sequence tracking surfaces as gaps).
	PolicyBlock Policy = iota
	// PolicyDropOldest evicts the oldest queued data batch to admit the
	// new one — keeps the freshest measurements under overload.
	PolicyDropOldest
	// PolicyDropNewest discards the incoming batch — cheapest, keeps the
	// oldest measurements.
	PolicyDropNewest
)

// ParsePolicy maps the flag spellings "block", "drop-oldest" and
// "drop-newest" to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "block":
		return PolicyBlock, nil
	case "drop-oldest":
		return PolicyDropOldest, nil
	case "drop-newest":
		return PolicyDropNewest, nil
	}
	return 0, fmt.Errorf("%w: unknown policy %q (want block, drop-oldest or drop-newest)", ErrConfig, s)
}

// String returns the flag spelling.
func (p Policy) String() string {
	switch p {
	case PolicyBlock:
		return "block"
	case PolicyDropOldest:
		return "drop-oldest"
	case PolicyDropNewest:
		return "drop-newest"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ctlKind discriminates batch payloads from pipeline control tokens.
type ctlKind uint8

const (
	ctlData ctlKind = iota
	// ctlSeal asks the shard to hand epoch Epoch's accumulator to the
	// merger. It is ordered after every data batch for that epoch.
	ctlSeal
	// ctlStop asks the shard goroutine to exit after processing everything
	// already queued.
	ctlStop
)

// rec is the compact per-record view shards aggregate: the OD lookup needs
// only the endpoint addresses, and the volume accumulators only the bytes.
type rec struct {
	src, dst [4]byte
	octets   uint32
}

// recSlab is a fixed-capacity arena one datagram's records decode into. The
// front end pulls slabs from a pool, the owning shard returns them after
// folding, and because the pooled value is the *recSlab pointer itself (not
// an interface-boxed slice header) the steady-state hand-off allocates
// nothing — asserted by TestIngestHotPathZeroAlloc.
type recSlab struct {
	n    int
	recs [MaxRecords]rec
}

// batch is one unit of shard work: a datagram's decoded records stamped with
// their epoch, or a control token.
type batch struct {
	ctl   ctlKind
	epoch int64
	slab  *recSlab
	// partial marks a ctlSeal forced by shutdown before the epoch's
	// lateness slack elapsed.
	partial bool
	// sealedAt timestamps a ctlSeal broadcast (rollover latency).
	sealedAt time.Time
}

// queue is the bounded ring buffer between the ingest front end and one
// shard. A plain channel cannot implement drop-oldest without racing the
// consumer, nor exempt control tokens from eviction, so this is a
// mutex+cond ring: one producer (the pipeline front end), one consumer
// (the shard goroutine).
//
// Control tokens may transiently exceed the configured capacity (the ring
// grows) — they are rare (one per epoch per shard) and must never block a
// producer that is also the party draining the shards during shutdown.
type queue struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	buf      []batch
	head     int // index of the oldest element
	n        int // number of queued elements
	capacity int // soft cap for data batches
	policy   Policy
}

func newQueue(capacity int, policy Policy) *queue {
	q := &queue{
		buf:      make([]batch, capacity),
		capacity: capacity,
		policy:   policy,
	}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

// grow doubles the ring (control-token overflow only).
func (q *queue) grow() {
	next := make([]batch, 2*len(q.buf))
	for i := 0; i < q.n; i++ {
		next[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = next, 0
}

func (q *queue) appendLocked(b batch) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = b
	q.n++
	q.notEmpty.Signal()
}

// pushData enqueues a data batch under the queue's policy. It reports
// whether the batch was admitted and, for drop-oldest, returns the evicted
// batch's record slab so the caller can account (and recycle) it.
func (q *queue) pushData(b batch) (admitted bool, evicted *recSlab) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n >= q.capacity {
		switch q.policy {
		case PolicyBlock:
			q.notFull.Wait()
		case PolicyDropNewest:
			return false, nil
		case PolicyDropOldest:
			if dropped, ok := q.evictOldestDataLocked(); ok {
				evicted = dropped
			} else {
				// Only control tokens are queued; admit over capacity.
				q.appendLocked(b)
				return true, evicted
			}
		}
		if q.policy == PolicyDropOldest {
			break
		}
	}
	q.appendLocked(b)
	return true, evicted
}

// pushCtl enqueues a control token unconditionally (the ring grows if
// needed).
func (q *queue) pushCtl(b batch) {
	q.mu.Lock()
	q.appendLocked(b)
	q.mu.Unlock()
}

// evictOldestDataLocked removes the oldest data batch, skipping control
// tokens. Returns false when no data batch is queued.
func (q *queue) evictOldestDataLocked() (*recSlab, bool) {
	for i := 0; i < q.n; i++ {
		idx := (q.head + i) % len(q.buf)
		if q.buf[idx].ctl != ctlData {
			continue
		}
		slab := q.buf[idx].slab
		// Shift the (rare, control-only) prefix forward one slot.
		for j := i; j > 0; j-- {
			q.buf[(q.head+j)%len(q.buf)] = q.buf[(q.head+j-1)%len(q.buf)]
		}
		q.buf[q.head] = batch{}
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		return slab, true
	}
	return nil, false
}

// pop blocks until a batch is available and returns it.
func (q *queue) pop() batch {
	q.mu.Lock()
	for q.n == 0 {
		q.notEmpty.Wait()
	}
	b := q.buf[q.head]
	q.buf[q.head] = batch{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.notFull.Signal()
	q.mu.Unlock()
	return b
}
