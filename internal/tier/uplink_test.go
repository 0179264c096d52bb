package tier

import (
	"bytes"
	"encoding/gob"
	"errors"
	"log/slog"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/obs"
	"streampca/internal/transport"
)

func newUplink(t *testing.T, mutate func(*UplinkConfig)) *Uplink {
	t.Helper()
	cfg := UplinkConfig{
		ID:         "peer",
		Hello:      func() transport.Hello { return hello("peer", []int{0}) },
		OnRequest:  func(*transport.Conn, transport.SketchRequest, *transport.TraceContext) {},
		OnAlarm:    func(transport.Alarm, *transport.TraceContext) {},
		Redial:     RedialPolicy{Enabled: true, Backoff: 5 * time.Millisecond, BackoffMax: 5 * time.Millisecond},
		Reconnects: obs.NewRegistry().Counter("reconnects", ""),
		Health:     obs.NewHealth(),
		Log:        obs.Nop(),
	}
	mutate(&cfg)
	u := NewUplink(cfg)
	t.Cleanup(func() {
		_ = u.Close()
		u.Wait()
	})
	return u
}

// rejecting starts an upstream that refuses every Hello with a refusal of
// the given kind and counts them.
func rejecting(t *testing.T, kind transport.ErrorKind) (addr string, hellos *atomic.Int64) {
	t.Helper()
	hellos = new(atomic.Int64)
	srv, err := transport.Listen("127.0.0.1:0", func(c *transport.Conn) {
		if env, err := c.Recv(); err == nil && env.Hello != nil {
			hellos.Add(1)
			_ = c.Send(transport.Envelope{Error: &transport.ProtocolError{Msg: "no", Kind: kind}})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv.Addr(), hellos
}

// TestRedialAfterRejection pins the one rule for an explicit rejection: a
// peer with nowhere else to go stays down (redialing would loop), unless its
// rejections are declared transient or it has candidates to fail over to. A
// refusal for other protocol parameters stays down regardless: no candidate
// runs other parameters than the tier that refused.
func TestRedialAfterRejection(t *testing.T) {
	transient := func(c *UplinkConfig, _ string) { c.RetryRejected = true }
	candidates := func(c *UplinkConfig, addr string) { c.Candidates = []string{addr, "127.0.0.1:1"} }
	cases := []struct {
		name   string
		kind   transport.ErrorKind
		mutate func(c *UplinkConfig, addr string)
		redial bool
	}{
		{"nowhere else to go", 0, func(*UplinkConfig, string) {}, false},
		{"rejections are transient", 0, transient, true},
		{"candidates to fail over to", 0, candidates, true},
		{"parameters refused, rejections transient", transport.ErrorParams, transient, false},
		{"parameters refused, candidates to fail over to", transport.ErrorParams, candidates, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, hellos := rejecting(t, tc.kind)
			u := newUplink(t, func(c *UplinkConfig) { tc.mutate(c, addr) })
			if err := u.Connect(addr, time.Second); err != nil {
				t.Fatal(err)
			}
			if tc.redial {
				waitFor(t, "a second Hello", func() bool { return hellos.Load() >= 2 })
				return
			}
			waitFor(t, "the link to drop", func() bool { return u.Conn() == nil })
			time.Sleep(50 * time.Millisecond) // ten backoff periods
			if got := hellos.Load(); got != 1 {
				t.Fatalf("%d Hellos after a final rejection, want 1", got)
			}
		})
	}
}

// TestCloseIsFinal: Close during the redial pause ends the loop (Wait and
// the test's goroutine accounting would hang or leak otherwise) and no later
// Attach brings the uplink back.
func TestCloseIsFinal(t *testing.T) {
	u := newUplink(t, func(c *UplinkConfig) { c.Redial.Backoff, c.Redial.BackoffMax = time.Hour, time.Hour })
	srv, err := transport.Listen("127.0.0.1:0", func(c *transport.Conn) { _, _ = c.Recv() })
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Connect(srv.Addr(), time.Second); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown() // the link drops; the redial loop starts its hour-long pause
	waitFor(t, "the link to drop", func() bool { return u.Conn() == nil })
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	u.Wait()
	a, b := transport.Pipe()
	defer b.Close()
	if err := u.Attach(a); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("Attach after Close: %v, want ErrNotConnected", err)
	}
}

// TestPlaceWalksRendezvousOrder: the first placement is the walk a redial
// makes — the rendezvous order for this ID, past candidates that refuse the
// dial — and an empty list places nowhere.
func TestPlaceWalksRendezvousOrder(t *testing.T) {
	srv, err := transport.Listen("127.0.0.1:0", func(c *transport.Conn) { _, _ = c.Recv() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	live := srv.Addr()
	// A dead candidate is a closed listener's address. Find an uplink ID
	// whose rendezvous order prefers it to the live one: each ID is a fresh
	// coin flip, where a search over ports is not — a live address that
	// outweighs most ports outweighs every probe.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	_ = l.Close()
	id := ""
	for i := 0; i < 64 && id == ""; i++ {
		if cand := "peer-" + strconv.Itoa(i); Rendezvous(cand, []string{live, dead})[0] == dead {
			id = cand
		}
	}
	if id == "" {
		t.Fatal("no uplink ID ranks the dead candidate first")
	}
	u := newUplink(t, func(c *UplinkConfig) { c.ID, c.Candidates = id, []string{live, dead} })
	addr, err := u.Place(time.Second)
	if err != nil || addr != live {
		t.Fatalf("Place = %q, %v; want %q past the refusing %q", addr, err, live, dead)
	}

	empty := newUplink(t, func(*UplinkConfig) {})
	if _, err := empty.Place(time.Second); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("Place with no candidates: %v, want ErrNotConnected", err)
	}
}

// TestAttachAdoptsTheAnnouncement: a peer whose Hello states no parameters
// registers without flows, Attach returns once Adopt has run on the
// announcement — and keeps the shard map the tier pushes after it, over an
// unbuffered pipe — and the peer registers again under the adopted Hello.
func TestAttachAdoptsTheAnnouncement(t *testing.T) {
	shards := &transport.ShardMap{Aggregators: []string{"a:1", "b:1"}, Epoch: 3}
	d, _ := newDownstream(t, func(c *DownstreamConfig) {
		c.OnJoin = func(conn *transport.Conn) { _ = conn.Send(transport.Envelope{Shards: shards}) }
	})
	var adopted atomic.Pointer[core.Params]
	u := newUplink(t, func(c *UplinkConfig) {
		c.Hello = func() transport.Hello {
			h := transport.Hello{MonitorID: "peer"}
			if p := adopted.Load(); p != nil {
				h = Stated(*p, h)
				h.FlowIDs = []int{0, 1}
			}
			return h
		}
		c.Adopt = func(p core.Params) error {
			adopted.Store(&p)
			return nil
		}
	})
	mine, theirs := transport.Pipe()
	go d.Handle(theirs)
	if err := u.Attach(mine); err != nil {
		t.Fatal(err)
	}
	if p := adopted.Load(); p == nil || *p != d.cfg.Params {
		t.Fatalf("adopted %v, want the tier's %v", p, d.cfg.Params)
	}
	waitFor(t, "the pushed shard map", func() bool {
		u.mu.Lock()
		defer u.mu.Unlock()
		return slices.Equal(u.candidates, shards.Aggregators)
	})
	waitFor(t, "the re-registration under the adopted parameters", func() bool {
		return slices.Equal(d.OwnedFlows(), []int{0, 1})
	})
}

// TestAttachRefusesABadAnnouncement: an announcement no state can be built
// from fails Attach with ErrParams and never reaches Adopt.
func TestAttachRefusesABadAnnouncement(t *testing.T) {
	for name, bad := range map[string]transport.Hello{
		"zero window": {SketchLen: 4, NumFlows: 8},
	} {
		t.Run(name, func(t *testing.T) {
			var adopts atomic.Int64
			u := newUplink(t, func(c *UplinkConfig) {
				c.Hello = func() transport.Hello { return transport.Hello{MonitorID: "peer"} }
				c.Adopt = func(core.Params) error { adopts.Add(1); return nil }
			})
			mine, theirs := transport.Pipe()
			go func() {
				if _, err := theirs.Recv(); err == nil {
					_ = theirs.Send(transport.Envelope{Hello: &bad})
				}
			}()
			if err := u.Attach(mine); !errors.Is(err, ErrParams) {
				t.Fatalf("Attach = %v, want ErrParams", err)
			}
			if n := adopts.Load(); n != 0 {
				t.Fatalf("Adopt ran %d times on a refused announcement", n)
			}
		})
	}
}

// lockedBuffer is a log sink safe for the uplink's goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestOtherVersionUpstreamIsNotRedialed: a peer whose upstream answers in
// another protocol version (wire version 1, whose pulls carried full windows
// of Gaussian rows, or gob from a build before the wire) logs one refusal and
// never redials it, even with candidates to fail over to.
func TestOtherVersionUpstreamIsNotRedialed(t *testing.T) {
	var gobFrame bytes.Buffer
	if err := gob.NewEncoder(&gobFrame).Encode(&struct{ Msg string }{"hello"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		answer []byte
	}{
		{"version 1", []byte("SPCA\x01\x06\x02\x00\x00\x00\x00\x04")},
		{"gob", gobFrame.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = ln.Close() })
			var dials atomic.Int64
			go func() {
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					dials.Add(1)
					_, _ = c.Write(tc.answer)
					t.Cleanup(func() { _ = c.Close() })
				}
			}()
			var log lockedBuffer
			u := newUplink(t, func(c *UplinkConfig) {
				c.Candidates = []string{ln.Addr().String(), "127.0.0.1:1"}
				c.Log = slog.New(slog.NewTextHandler(&log, nil))
			})
			if err := u.Connect(ln.Addr().String(), time.Second); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the link to drop", func() bool { return u.Conn() == nil })
			time.Sleep(50 * time.Millisecond) // ten backoff periods
			if n := dials.Load(); n != 1 {
				t.Errorf("%d dials of an upstream of another version, want 1", n)
			}
			if n := strings.Count(log.String(), "upstream refused: protocol version"); n != 1 {
				t.Errorf("%d refusals logged, want 1:\n%s", n, log.String())
			}
		})
	}
}
