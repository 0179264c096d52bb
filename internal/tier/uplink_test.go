package tier

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

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
		Reconnect:  true,
		Backoff:    5 * time.Millisecond,
		BackoffMax: 5 * time.Millisecond,
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

// rejecting starts an upstream that refuses every Hello and counts them.
func rejecting(t *testing.T) (addr string, hellos *atomic.Int64) {
	t.Helper()
	hellos = new(atomic.Int64)
	srv, err := transport.Listen("127.0.0.1:0", func(c *transport.Conn) {
		if env, err := c.Recv(); err == nil && env.Hello != nil {
			hellos.Add(1)
			_ = c.Send(transport.Envelope{Error: &transport.ProtocolError{Msg: "no"}})
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
// rejections are declared transient or it has candidates to fail over to.
func TestRedialAfterRejection(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(c *UplinkConfig, addr string)
		redial bool
	}{
		{"nowhere else to go", func(*UplinkConfig, string) {}, false},
		{"rejections are transient", func(c *UplinkConfig, _ string) { c.RetryRejected = true }, true},
		{"candidates to fail over to", func(c *UplinkConfig, addr string) { c.Candidates = []string{addr, "127.0.0.1:1"} }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, hellos := rejecting(t)
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
	u := newUplink(t, func(c *UplinkConfig) { c.Backoff, c.BackoffMax = time.Hour, time.Hour })
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
