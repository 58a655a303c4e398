package transport

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Per-link fault injection: the transport half of internal/chaos. A
// FaultSet holds directed src->dst rules (cut the link, drop a fraction
// of messages, add latency). The transports themselves know nothing of
// faults: a runtime node consults at most one FaultSet
// (runtime.Config.Faults) on every exchange it initiates, gossip or app,
// before the transport runs. So a chaos executor can partition, degrade
// or delay one node's links on any backend, and nodes that do not share
// a set never share a rule.

// FaultRule is one directed per-link fault. From and To are transport
// addresses as the dialing side sees them (the sender's own Addr and the
// address it dials); "*" matches any address. The zero rule matches
// nothing and injects nothing.
type FaultRule struct {
	// From matches the sender's own address; "*" matches every sender.
	From string `json:"from"`
	// To matches the dialed address; "*" matches every destination.
	To string `json:"to"`
	// Cut makes matching exchanges fail immediately with ErrUnreachable —
	// a directed partition edge.
	Cut bool `json:"cut,omitempty"`
	// Loss drops matching exchanges with this probability (0..1], failing
	// them with ErrDropped.
	Loss float64 `json:"loss,omitempty"`
	// Latency delays matching exchanges before the dial.
	Latency time.Duration `json:"latency_ns,omitempty"`
}

// matches reports whether the rule applies to a message from→to.
func (r FaultRule) matches(from, to string) bool {
	return (r.From == "*" || r.From == from) && (r.To == "*" || r.To == to)
}

// FaultSet is a swappable table of FaultRules with a seeded RNG for loss
// decisions. The zero value is invalid; use NewFaultSet. A nil *FaultSet
// injects nothing. When several rules match one message, any Cut wins,
// and the largest Loss and Latency apply.
type FaultSet struct {
	active atomic.Int32 // rule count, for a lock-free empty fast path

	mu    sync.Mutex
	rules []FaultRule
	rng   *rand.Rand
}

// NewFaultSet returns an empty fault set whose loss decisions draw from
// the given seed.
func NewFaultSet(seed uint64) *FaultSet {
	return &FaultSet{rng: rand.New(rand.NewPCG(seed, 0xC4A05))}
}

// SetRules atomically replaces the whole rule table (nil heals every
// fault). Rules are copied; the caller keeps its slice.
func (f *FaultSet) SetRules(rules []FaultRule) {
	cp := append([]FaultRule(nil), rules...)
	f.mu.Lock()
	f.rules = cp
	f.mu.Unlock()
	f.active.Store(int32(len(cp)))
}

// ActiveRules reports how many rules are installed.
func (f *FaultSet) ActiveRules() int { return int(f.active.Load()) }

// Apply decides the fate of one outbound message from->to: it waits out
// any injected latency, returning early with ctx's error if ctx ends
// first, and returns the injected failure, if any (ErrUnreachable for a
// cut link, ErrDropped for injected loss). A nil or empty set costs one
// check.
func (f *FaultSet) Apply(ctx context.Context, from, to string) error {
	if f == nil || f.active.Load() == 0 {
		return nil
	}
	d, err := f.decide(from, to)
	if err != nil || d <= 0 {
		return err
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// decide matches one message against the rules: the latency to add, or
// the failure to inject instead.
func (f *FaultSet) decide(from, to string) (time.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var latency time.Duration
	var loss float64
	for _, r := range f.rules {
		if !r.matches(from, to) {
			continue
		}
		if r.Cut {
			return 0, fmt.Errorf("%w: %s: link cut by fault rule", ErrUnreachable, to)
		}
		if r.Loss > loss {
			loss = r.Loss
		}
		if r.Latency > latency {
			latency = r.Latency
		}
	}
	if loss > 0 && f.rng.Float64() < loss {
		return 0, fmt.Errorf("%w: fault rule loss", ErrDropped)
	}
	return latency, nil
}
