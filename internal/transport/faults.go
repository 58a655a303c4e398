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
// FaultSet holds directed src→dst rules (cut the link, drop a fraction
// of messages, add latency) and every registry backend consults the
// process-global set on its active exchange path, so a chaos executor
// can partition, degrade or delay live tcp / tcp-pooled / udp traffic
// without the transports knowing anything about plans or timelines. The
// in-memory Fabric honours the same rule shape via Fabric.SetFaults.

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

// FaultInjector decides the fate of one outbound message. Inject returns
// the latency to add before the message proceeds, or a non-nil error when
// the message must fail instead (ErrUnreachable for a cut link, ErrDropped
// for injected loss). Implementations must be safe for concurrent use.
type FaultInjector interface {
	Inject(from, to string) (latency time.Duration, err error)
}

// FaultSet is the standard FaultInjector: a swappable table of FaultRules
// with a seeded RNG for loss decisions. The zero value is invalid; use
// NewFaultSet. When several rules match one message, any Cut wins, and
// the largest Loss and Latency apply.
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

// Reseed restarts the loss RNG, making a replayed plan's drop decisions
// reproducible.
func (f *FaultSet) Reseed(seed uint64) {
	f.mu.Lock()
	f.rng = rand.New(rand.NewPCG(seed, 0xC4A05))
	f.mu.Unlock()
}

// Rules returns a copy of the current rule table.
func (f *FaultSet) Rules() []FaultRule {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]FaultRule(nil), f.rules...)
}

// ActiveRules reports how many rules are installed.
func (f *FaultSet) ActiveRules() int { return int(f.active.Load()) }

// Inject implements FaultInjector.
func (f *FaultSet) Inject(from, to string) (time.Duration, error) {
	if f.active.Load() == 0 {
		return 0, nil
	}
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

// defaultFaults is the process-global fault set every registry backend
// consults. One table per process is exactly the deployment shape: a
// forked psnode holds its own, and an inproc fleet's members share one
// keyed by their distinct addresses.
var defaultFaults = NewFaultSet(1)

// Faults returns the process-global fault set — the hook a chaos
// executor (or a daemon's control agent) installs rules into.
func Faults() *FaultSet { return defaultFaults }

// checkLinkFault applies the process-global fault set to one outbound
// message on the active side: it sleeps out any injected latency
// (honouring ctx) and returns the injected failure, if any. The empty
// table costs one atomic load.
func checkLinkFault(ctx context.Context, from, to string) error {
	d, err := defaultFaults.Inject(from, to)
	if err != nil {
		return err
	}
	return sleepCtx(ctx, d)
}

// sleepCtx waits out an injected latency d, returning early with ctx's
// error if ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
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
