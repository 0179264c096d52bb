package tier

import (
	"errors"
	"testing"
	"time"

	"streampca/internal/core"
)

// TestPolicyDefaults pins the one defaulting rule for every link-policy
// field: a duration ≤ 0 takes the default's, a count of 0 takes the
// default's and a negative one stays "none", a backoff cap below its backoff
// is raised to it, a staleness of 0 takes max(1, window/4) and a negative one
// is refused.
func TestPolicyDefaults(t *testing.T) {
	const ms = time.Millisecond
	pulls := []struct {
		name          string
		def, in, want PullPolicy
	}{
		{"zero takes the NOC's", NOCPull, PullPolicy{}, NOCPull},
		{"zero takes the aggregator's", AggPull, PullPolicy{}, AggPull},
		{"negative durations take the role's", NOCPull,
			PullPolicy{Timeout: -1, Retries: 1, Backoff: -ms, BackoffMax: -ms},
			PullPolicy{Timeout: 5 * time.Second, Retries: 1, Backoff: 50 * ms, BackoffMax: time.Second}},
		{"negative retries mean none", NOCPull,
			PullPolicy{Retries: -1},
			PullPolicy{Timeout: 5 * time.Second, Retries: -1, Backoff: 50 * ms, BackoffMax: time.Second}},
		{"set fields are kept", AggPull,
			PullPolicy{Timeout: ms, Retries: 7, Backoff: 2 * ms, BackoffMax: 3 * ms},
			PullPolicy{Timeout: ms, Retries: 7, Backoff: 2 * ms, BackoffMax: 3 * ms}},
		{"a cap below the backoff is raised to it", NOCPull,
			PullPolicy{Backoff: 2 * time.Second, BackoffMax: 10 * ms},
			PullPolicy{Timeout: 5 * time.Second, Retries: 2, Backoff: 2 * time.Second, BackoffMax: 2 * time.Second}},
		{"an unset cap below a set backoff is raised too", NOCPull,
			PullPolicy{Backoff: 3 * time.Second},
			PullPolicy{Timeout: 5 * time.Second, Retries: 2, Backoff: 3 * time.Second, BackoffMax: 3 * time.Second}},
	}
	for _, tc := range pulls {
		if got := tc.in.Or(tc.def); got != tc.want {
			t.Errorf("pull, %s: %+v.Or = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
		if got := tc.in.Or(tc.def).Or(tc.def); got != tc.want {
			t.Errorf("pull, %s: Or is not idempotent: %+v", tc.name, got)
		}
	}
	if AggPull.Or(NOCPull) != AggPull {
		t.Errorf("an aggregator's resolved policy must survive the NOC's defaults: %+v", AggPull.Or(NOCPull))
	}

	redials := []struct {
		name     string
		in, want RedialPolicy
	}{
		{"zero takes the default", RedialPolicy{}, DefaultRedial},
		{"enabled is the caller's", RedialPolicy{Enabled: true},
			RedialPolicy{Enabled: true, Backoff: 200 * ms, BackoffMax: 5 * time.Second}},
		{"negative durations take the default", RedialPolicy{Backoff: -1, BackoffMax: -1}, DefaultRedial},
		{"a cap below the backoff is raised to it",
			RedialPolicy{Backoff: 9 * time.Second, BackoffMax: ms},
			RedialPolicy{Backoff: 9 * time.Second, BackoffMax: 9 * time.Second}},
	}
	for _, tc := range redials {
		if got := tc.in.Or(DefaultRedial); got != tc.want {
			t.Errorf("redial, %s: %+v.Or = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
	}

	degraded := []struct {
		name   string
		in     DegradedPolicy
		window int
		want   int64 // resolved MaxStaleness; -1 = refused
	}{
		{"zero is a quarter window", DegradedPolicy{Enabled: true}, 64, 16},
		{"zero is at least one", DegradedPolicy{Enabled: true}, 3, 1},
		{"set is kept", DegradedPolicy{MaxStaleness: 5}, 64, 5},
		{"negative is refused", DegradedPolicy{Enabled: true, MaxStaleness: -1}, 64, -1},
		{"negative is refused while off", DegradedPolicy{MaxStaleness: -3}, 64, -1},
	}
	for _, tc := range degraded {
		got, err := tc.in.resolve(tc.window)
		switch {
		case tc.want < 0 && !errors.Is(err, ErrPolicy):
			t.Errorf("degraded, %s: err %v, want ErrPolicy", tc.name, err)
		case tc.want >= 0 && (err != nil || got.MaxStaleness != tc.want || got.Enabled != tc.in.Enabled):
			t.Errorf("degraded, %s: %+v, %v; want MaxStaleness %d", tc.name, got, err, tc.want)
		}
	}
}

// TestNewDownstreamAppliesPolicies: the half resolves its policies itself,
// from the role defaults it is handed, and refuses what the rule refuses.
func TestNewDownstreamAppliesPolicies(t *testing.T) {
	cfg := DownstreamConfig{
		Params:       core.Params{NumFlows: testFlows, WindowLen: 40},
		Pull:         PullPolicy{Retries: 3},
		PullDefaults: AggPull,
		Degraded:     DegradedPolicy{Enabled: true},
		Metrics:      testMetrics(),
	}
	d, err := NewDownstream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	want := PullPolicy{Timeout: 2 * time.Second, Retries: 3, Backoff: 50 * time.Millisecond, BackoffMax: time.Second}
	if d.cfg.Pull != want {
		t.Errorf("pull policy %+v, want %+v", d.cfg.Pull, want)
	}
	if got := d.Degraded().MaxStaleness; got != 10 {
		t.Errorf("max staleness %d, want window/4 = 10", got)
	}
	cfg.Degraded.MaxStaleness = -1
	if _, err := NewDownstream(cfg); !errors.Is(err, ErrPolicy) {
		t.Errorf("negative staleness: %v, want ErrPolicy", err)
	}
}
