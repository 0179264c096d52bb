// Package faults is a stdlib-only fault-injection layer for the
// monitor↔NOC transport. A Plan is an ordered list of rules matching
// messages by direction and payload type; each firing rule can drop the
// message, delay it, corrupt its payload, or disconnect the connection.
// Decisions are deterministic for a given seed and message sequence, so
// chaos tests replay exactly.
//
// The transport consults the injector on every Send and Recv; the no-op
// default (a nil Injector) costs one pointer check per message, so
// production builds pay nothing for the capability.
package faults

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Directions a rule can match. An empty Dir matches both.
const (
	DirSend = "send"
	DirRecv = "recv"
)

// Outcome is the injector's verdict for one message. The zero value passes
// the message through untouched.
type Outcome struct {
	// Drop silently discards the message (the sender believes it was sent;
	// the receiver never sees it).
	Drop bool
	// Delay stalls delivery for the given duration before proceeding.
	Delay time.Duration
	// Corrupt mutates the payload in a way the peer's validators can
	// detect (e.g. a non-finite sketch value), exercising bad-report paths.
	Corrupt bool
	// Disconnect closes the connection instead of delivering the message.
	Disconnect bool
}

// Zero reports whether the outcome leaves the message untouched.
func (o Outcome) Zero() bool {
	return !o.Drop && o.Delay == 0 && !o.Corrupt && !o.Disconnect
}

// Injector decides the fate of each message. Implementations must be safe
// for concurrent use: every connection sharing the injector calls Decide
// from its own goroutines.
type Injector interface {
	// Decide is consulted once per message with the transport direction
	// (DirSend or DirRecv, from the perspective of the consulting
	// connection) and the envelope's payload type name ("hello", "volume",
	// "sketch_request", "sketch_response", "alarm", "error", "shard_map").
	Decide(dir, msgType string) Outcome
}

// Rule matches a subset of messages and applies an action. Fields compose:
// a rule with both Drop and Delay set delays, then drops.
type Rule struct {
	// Dir restricts the rule to DirSend or DirRecv; empty matches both.
	Dir string
	// Type restricts the rule to one payload type name; empty matches all.
	Type string
	// After skips the first After matching messages before the rule can
	// fire (deterministic fault windows: "break the 3rd response").
	After int
	// Count caps how many times the rule fires; 0 means unlimited.
	Count int
	// Prob is the firing probability once After/Count allow; values <= 0
	// or >= 1 mean "always". Draws come from the plan's seeded generator.
	Prob float64

	// Actions applied when the rule fires.
	Drop       bool
	Delay      time.Duration
	Corrupt    bool
	Disconnect bool
}

func (r Rule) outcome() Outcome {
	return Outcome{Drop: r.Drop, Delay: r.Delay, Corrupt: r.Corrupt, Disconnect: r.Disconnect}
}

// ruleState tracks one rule's match/fire counters.
type ruleState struct {
	rule    Rule
	matched int
	fired   int
}

// Plan is a deterministic, thread-safe Injector built from rules. The first
// matching rule that fires wins; later rules are not consulted for that
// message.
type Plan struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []*ruleState
}

// NewPlan builds a plan. The seed drives the probabilistic draws; two plans
// with the same seed and rules make identical decisions for identical
// message sequences.
func NewPlan(seed uint64, rules ...Rule) (*Plan, error) {
	for i, r := range rules {
		if r.Dir != "" && r.Dir != DirSend && r.Dir != DirRecv {
			return nil, fmt.Errorf("faults: rule %d: bad direction %q", i, r.Dir)
		}
		if r.After < 0 || r.Count < 0 {
			return nil, fmt.Errorf("faults: rule %d: negative After/Count", i)
		}
		if r.Delay < 0 {
			return nil, fmt.Errorf("faults: rule %d: negative delay", i)
		}
	}
	p := &Plan{rng: rand.New(rand.NewSource(int64(seed)))}
	for _, r := range rules {
		p.rules = append(p.rules, &ruleState{rule: r})
	}
	return p, nil
}

// MustPlan is NewPlan for tests; it panics on invalid rules.
func MustPlan(seed uint64, rules ...Rule) *Plan {
	p, err := NewPlan(seed, rules...)
	if err != nil {
		panic(err)
	}
	return p
}

// Decide implements Injector.
func (p *Plan) Decide(dir, msgType string) Outcome {
	if p == nil {
		return Outcome{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, st := range p.rules {
		r := &st.rule
		if r.Dir != "" && r.Dir != dir {
			continue
		}
		if r.Type != "" && r.Type != msgType {
			continue
		}
		st.matched++
		if st.matched <= r.After {
			continue
		}
		if r.Count > 0 && st.fired >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && p.rng.Float64() >= r.Prob {
			continue
		}
		st.fired++
		return r.outcome()
	}
	return Outcome{}
}

// Fired returns how many times rule i has fired (for test assertions).
func (p *Plan) Fired(i int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.rules) {
		return 0
	}
	return p.rules[i].fired
}

// String summarizes the plan's state, e.g. for chaos-test failure messages.
func (p *Plan) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var b strings.Builder
	for i, st := range p.rules {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "rule %d (%s %s): matched %d, fired %d",
			i, orAny(st.rule.Dir), orAny(st.rule.Type), st.matched, st.fired)
	}
	return b.String()
}

func orAny(s string) string {
	if s == "" {
		return "any"
	}
	return s
}
