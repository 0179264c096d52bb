package tier

import (
	"errors"
	"fmt"
	"time"
)

// ErrPolicy indicates a link policy the rule cannot default.
var ErrPolicy = errors.New("tier: invalid policy")

// The link policy is three values, each defaulted by one rule: a duration
// ≤ 0 takes the default's, a count of 0 takes the default's and a negative
// count means none; a backoff cap below its backoff is raised to it; a
// negative staleness bound is an error. A role passes its defaults in as
// data (DownstreamConfig.PullDefaults); NewDownstream and NewUplink apply
// the rule, so a service built from a zero config behaves as its role's
// defaults say.

// PullPolicy paces a Downstream's lazy sketch pulls (§IV-C). One round waits
// up to Timeout for answers; up to Retries further rounds each re-ask only
// the owners of flows still uncovered, after a pause that starts at Backoff
// and doubles, jittered, up to BackoffMax.
type PullPolicy struct {
	Timeout    time.Duration
	Retries    int
	Backoff    time.Duration
	BackoffMax time.Duration
}

// RedialPolicy paces an Uplink's redial after its link drops: with Enabled,
// a pause that starts at Backoff and doubles up to BackoffMax before each
// walk of the candidate list.
type RedialPolicy struct {
	Enabled    bool
	Backoff    time.Duration
	BackoffMax time.Duration
}

// DegradedPolicy configures graceful degradation: instead of stalling when a
// registrant is missing, its flows' last validated data — volumes when an
// interval is assembled, sketch reports when a pull is answered — stand in,
// and the result is flagged degraded. Sharan et al. show sketch-based
// detection tolerates approximate inputs; the substitution trades Theorem 2's
// freshness for availability.
type DegradedPolicy struct {
	// Enabled turns degradation on. Off (the default), incomplete coverage
	// stalls interval assembly and leaves pulls uncovered.
	Enabled bool
	// MaxStaleness bounds, in intervals, how far cached data may lie from the
	// point it stands in for; 0 selects max(1, WindowLen/4).
	MaxStaleness int64
}

const pullBackoff, pullBackoffMax = 50 * time.Millisecond, time.Second

// DialTimeout bounds every daemon's dial of its upstream tier.
const DialTimeout = 5 * time.Second

// The role defaults: a NOC waits 5s for a pull round and retries twice, an
// aggregator 2s and not at all; every uplink redials from 200ms up to 5s.
var (
	NOCPull       = PullPolicy{Timeout: 5 * time.Second, Retries: 2, Backoff: pullBackoff, BackoffMax: pullBackoffMax}
	AggPull       = PullPolicy{Timeout: 2 * time.Second, Retries: -1, Backoff: pullBackoff, BackoffMax: pullBackoffMax}
	DefaultRedial = RedialPolicy{Backoff: 200 * time.Millisecond, BackoffMax: 5 * time.Second}
)

// Or applies the rule to p against def. A negative Retries stays negative,
// so Or composes: p.Or(a).Or(b) takes a's values before b's.
func (p PullPolicy) Or(def PullPolicy) PullPolicy {
	p.Timeout = orDuration(p.Timeout, def.Timeout)
	if p.Retries == 0 {
		p.Retries = def.Retries
	}
	p.Backoff, p.BackoffMax = orBackoff(p.Backoff, p.BackoffMax, def.Backoff, def.BackoffMax)
	return p
}

// Or applies the rule to p against def; Enabled is p's.
func (p RedialPolicy) Or(def RedialPolicy) RedialPolicy {
	p.Backoff, p.BackoffMax = orBackoff(p.Backoff, p.BackoffMax, def.Backoff, def.BackoffMax)
	return p
}

// resolve applies the rule to p for a window of windowLen intervals.
func (p DegradedPolicy) resolve(windowLen int) (DegradedPolicy, error) {
	switch {
	case p.MaxStaleness < 0:
		return p, fmt.Errorf("%w: max staleness %d", ErrPolicy, p.MaxStaleness)
	case p.MaxStaleness == 0:
		p.MaxStaleness = max(1, int64(windowLen/4))
	}
	return p, nil
}

// Fresh is the one staleness rule: cached data from interval at may stand in
// at reference interval ref when the policy is on and their distance is
// within MaxStaleness. The distance is symmetric — a registrant that raced
// ahead before vanishing leaves cache entries newer than ref, and filling
// from the far future is as wrong as from the far past.
func (p DegradedPolicy) Fresh(ref, at int64) bool {
	age := ref - at
	if age < 0 {
		age = -age
	}
	return p.Enabled && age <= p.MaxStaleness
}

func orDuration(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

func orBackoff(b, bmax, def, defMax time.Duration) (time.Duration, time.Duration) {
	b = orDuration(b, def)
	return b, max(orDuration(bmax, defMax), b)
}
