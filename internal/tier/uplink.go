package tier

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"streampca/internal/obs"
	"streampca/internal/transport"
)

// Errors returned by the uplink half.
var (
	// ErrNotConnected indicates an operation requiring a live upstream link.
	ErrNotConnected = errors.New("tier: not connected")
	// ErrAlreadyConnected indicates a second Connect/Attach.
	ErrAlreadyConnected = errors.New("tier: already connected")
)

// linkHealth is the obs.Health component the uplink reports under.
const linkHealth = "noc-link"

// UplinkConfig parameterises the uplink half.
type UplinkConfig struct {
	// ID keys the rendezvous order over the candidate list.
	ID string
	// Hello builds the announcement for the current state; it is called for
	// the registration on every (re)connect and for every Announce.
	Hello func() transport.Hello
	// OnRequest serves a sketch pull arriving on c; it runs on the link's
	// reader and should hand long work to another goroutine. OnAlarm receives
	// alarm broadcasts. tc is the frame's trace context, if any.
	OnRequest func(c *transport.Conn, req transport.SketchRequest, tc *transport.TraceContext)
	OnAlarm   func(a transport.Alarm, tc *transport.TraceContext)
	// Reconnect redials with capped exponential backoff (defaults 200ms and
	// 5s) when a link made by Connect drops: the rendezvous order over the
	// candidate list when one is known, else the last address. After an
	// explicit rejection the redial happens only with RetryRejected — for a
	// peer whose rejections are transient, like a claim conflict during a
	// re-shard that clears once the stale owner drops — or when there is
	// more than one candidate to fail over to; otherwise it would loop.
	Reconnect     bool
	Backoff       time.Duration
	BackoffMax    time.Duration
	RetryRejected bool
	// Candidates pre-seeds the candidate list normally learned from a pushed
	// transport.ShardMap (epoch 0, so any pushed map replaces it).
	Candidates  []string
	WireMetrics *transport.Metrics
	// Reconnects counts successful redials; Health tracks the link.
	Reconnects *obs.Counter
	Health     *obs.Health
	Log        *slog.Logger
}

// Uplink is the half of a tier that faces the tier above: one duplex
// connection carrying the Hello and volume reports up, and sketch requests,
// alarms and shard maps down.
type Uplink struct {
	cfg  UplinkConfig
	log  *slog.Logger
	stop chan struct{}

	// helloMu serializes Hellos so a stale announcement can never overtake a
	// fresher one on the wire. Lock order: helloMu before mu.
	helloMu sync.Mutex

	mu     sync.Mutex
	conn   *transport.Conn
	reader chan struct{} // closed when the current link's reader exits
	closed bool
	// addr/dialTimeout remember the last Connect for the redial loop.
	addr        string
	dialTimeout time.Duration
	// candidates is the shard map most recently pushed on the link, kept at
	// the highest epoch seen.
	candidates []string
	epoch      uint64
}

// NewUplink builds the half (not yet connected).
func NewUplink(cfg UplinkConfig) *Uplink {
	if cfg.Backoff <= 0 {
		cfg.Backoff = 200 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	cfg.Health.Set(linkHealth, obs.StatusDegraded, "not connected")
	return &Uplink{
		cfg:        cfg,
		log:        cfg.Log,
		stop:       make(chan struct{}),
		candidates: append([]string(nil), cfg.Candidates...),
	}
}

// Conn returns the live upstream connection, nil while the link is down.
func (u *Uplink) Conn() *transport.Conn {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.conn
}

// Connect dials addr, registers and starts serving the link. With
// Config.Reconnect a later loss redials automatically.
func (u *Uplink) Connect(addr string, timeout time.Duration) error {
	u.mu.Lock()
	u.addr, u.dialTimeout = addr, timeout
	u.mu.Unlock()
	conn, err := transport.DialWithMetrics(addr, timeout, u.cfg.WireMetrics)
	if err != nil {
		u.cfg.Health.Set(linkHealth, obs.StatusDown, err.Error())
		return fmt.Errorf("connect upstream: %w", err)
	}
	if err := u.Attach(conn); err != nil {
		_ = conn.Close()
		return err
	}
	return nil
}

// Attach adopts an established connection (tests, embedders): sends the
// Hello and starts the reader.
func (u *Uplink) Attach(conn *transport.Conn) error {
	u.helloMu.Lock()
	defer u.helloMu.Unlock()
	u.mu.Lock()
	switch {
	case u.closed:
		u.mu.Unlock()
		return fmt.Errorf("%w: closed", ErrNotConnected)
	case u.conn != nil:
		u.mu.Unlock()
		return ErrAlreadyConnected
	}
	u.conn = conn
	reader := make(chan struct{})
	u.reader = reader
	u.mu.Unlock()

	hello := u.cfg.Hello()
	if err := conn.Send(transport.Envelope{Hello: &hello}); err != nil {
		u.mu.Lock()
		if u.conn == conn {
			u.conn = nil
		}
		u.mu.Unlock()
		close(reader)
		u.cfg.Health.Set(linkHealth, obs.StatusDown, err.Error())
		return fmt.Errorf("hello: %w", err)
	}
	u.cfg.Health.Set(linkHealth, obs.StatusOK, "registered upstream")
	u.log.Info("attached upstream", "flows", len(hello.FlowIDs))
	go u.readLoop(conn, reader)
	return nil
}

// Announce re-sends the Hello on the live link after the announced state
// changed (the upstream treats a repeat Hello as re-registration); a no-op
// while the link is down. A send failure is left to the reader, which sees
// the dead link and redials. Reports whether a Hello went out.
func (u *Uplink) Announce() bool {
	u.helloMu.Lock()
	defer u.helloMu.Unlock()
	conn := u.Conn()
	if conn == nil {
		return false
	}
	hello := u.cfg.Hello()
	if err := conn.Send(transport.Envelope{Hello: &hello}); err != nil {
		u.log.Warn("re-hello send failed", "err", err)
		return false
	}
	u.log.Info("re-announced upstream", "flows", len(hello.FlowIDs))
	return true
}

// readLoop serves the link until it dies, then hands off to the redial loop
// when that is enabled and sensible.
func (u *Uplink) readLoop(conn *transport.Conn, reader chan struct{}) {
	defer close(reader)
	rejected := false
	for !rejected {
		env, err := conn.Recv()
		if err != nil {
			break
		}
		switch {
		case env.Request != nil:
			u.cfg.OnRequest(conn, *env.Request, env.Trace)
		case env.Alarm != nil:
			u.cfg.OnAlarm(*env.Alarm, env.Trace)
		case env.Shards != nil:
			u.mu.Lock()
			if len(env.Shards.Aggregators) > 0 && env.Shards.Epoch >= u.epoch {
				u.epoch = env.Shards.Epoch
				u.candidates = append([]string(nil), env.Shards.Aggregators...)
			}
			n, epoch := len(u.candidates), u.epoch
			u.mu.Unlock()
			u.log.Info("shard map received", "aggregators", n, "epoch", epoch)
		case env.Error != nil:
			rejected = true
			u.cfg.Health.Set(linkHealth, obs.StatusDown, env.Error.Msg)
			u.log.Error("upstream rejected the registration", "err", env.Error.Msg)
		default:
			// Ignore unexpected but well-formed frames (forward compat).
		}
	}

	// Release the link if it is still the current one; Close may already
	// have swapped it out (then there is nothing to do).
	u.mu.Lock()
	current := u.conn == conn && !u.closed
	if current {
		u.conn = nil
	}
	addr, nCand := u.addr, len(u.candidates)
	u.mu.Unlock()
	if !current {
		return
	}
	_ = conn.Close()
	if u.cfg.Reconnect && addr != "" && (!rejected || u.cfg.RetryRejected || nCand > 1) {
		u.cfg.Health.Set(linkHealth, obs.StatusDegraded, "link lost; reconnecting")
		u.log.Warn("upstream link lost, reconnecting", "addr", addr, "candidates", nCand)
		go u.redial(addr)
	} else if !rejected {
		u.cfg.Health.Set(linkHealth, obs.StatusDown, "link lost")
		u.log.Warn("upstream link lost")
	}
}

// redial reconnects with capped exponential backoff until it succeeds, the
// uplink closes or another link appears. With a candidate list on file each
// round walks its rendezvous order for this ID (then the last good address,
// when that is not on the list), so the death of one upstream re-places this
// peer onto the survivor every other peer independently agrees on.
func (u *Uplink) redial(fallback string) {
	backoff := u.cfg.Backoff
	for attempt := 1; ; attempt++ {
		u.mu.Lock()
		stop := u.closed || u.conn != nil
		timeout := u.dialTimeout
		order := Rendezvous(u.cfg.ID, u.candidates)
		u.mu.Unlock()
		if stop {
			return
		}
		select {
		case <-time.After(backoff):
		case <-u.stop:
			return
		}
		if backoff *= 2; backoff > u.cfg.BackoffMax {
			backoff = u.cfg.BackoffMax
		}
		if !slices.Contains(order, fallback) {
			order = append(order, fallback)
		}
		for _, addr := range order {
			err := u.Connect(addr, timeout)
			if err == nil {
				u.cfg.Reconnects.Inc()
				u.log.Info("reconnected upstream", "addr", addr, "attempts", attempt)
				return
			}
			if errors.Is(err, ErrAlreadyConnected) || errors.Is(err, ErrNotConnected) {
				return // someone else attached, or the uplink closed
			}
			u.log.Warn("reconnect attempt failed", "attempt", attempt, "addr", addr, "err", err)
		}
	}
}

// Close tears the link down for good and stops any redial loop. It does not
// wait for the reader (see Wait), so it is safe to call while the reader is
// blocked in a callback that only a later teardown step releases. Safe to
// call multiple times and before Connect.
func (u *Uplink) Close() error {
	u.mu.Lock()
	conn := u.conn
	u.conn = nil
	if !u.closed {
		u.closed = true
		close(u.stop)
	}
	u.mu.Unlock()
	u.cfg.Health.Set(linkHealth, obs.StatusDown, "closed")
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// Wait blocks until the reader of the last link has exited.
func (u *Uplink) Wait() {
	u.mu.Lock()
	reader := u.reader
	u.mu.Unlock()
	if reader != nil {
		<-reader
	}
}

// Rendezvous orders upstream candidates by highest-random-weight (HRW)
// preference for the given peer ID: every peer, hashing independently,
// agrees on which live candidate owns it, and the death of one candidate
// re-places only that candidate's peers — the survivors' assignments are
// untouched. Ties (identical hashes) break on the address string so the
// order is total and deterministic. The input slice is not modified.
//
// The raw FNV-1a digest avalanches poorly over the short, near-identical
// strings aggregator addresses tend to be ("agg-a:7101" vs "agg-b:7101"),
// which skews placement badly; the murmur3 fmix64 finalizer restores full
// bit diffusion.
func Rendezvous(id string, candidates []string) []string {
	out := append([]string(nil), candidates...)
	weight := func(addr string) uint64 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(addr))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(id))
		x := h.Sum64()
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		return x
	}
	sort.SliceStable(out, func(i, j int) bool {
		wi, wj := weight(out[i]), weight(out[j])
		if wi != wj {
			return wi > wj
		}
		return out[i] < out[j]
	})
	return out
}
