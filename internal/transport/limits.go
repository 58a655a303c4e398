package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Hardening defaults. They bound resource use per listener without
// affecting well-behaved gossip traffic: a healthy cluster peer holds at
// most DefaultMaxIdlePerPeer connections into a node, so even large
// clusters sit far below DefaultMaxConns.
const (
	// DefaultMaxConns caps the connections a listener serves concurrently.
	DefaultMaxConns = 1024
	// DefaultKeepAlive is the passive read budget between frames for
	// connections that have initiated at least one pull. It is twice the
	// default pool idle timeout — the invariant that lets a pooled
	// initiator abandon a connection before the passive side closes it
	// (see Limits.KeepAlive).
	DefaultKeepAlive = 2 * DefaultIdleTimeout
	// DefaultPushOnlyKeepAlive is the shrunken budget for connections that
	// have never initiated a pull. It still exceeds the pool idle timeout
	// (so legitimate push-only pooled peers keep their delivery guarantee)
	// but reclaims fds from hostile connections 25% sooner.
	DefaultPushOnlyKeepAlive = 3 * DefaultIdleTimeout / 2
)

// Limits bounds the resources a listener devotes to the network, so that
// connection floods and slowloris-style idle peers exhaust neither file
// descriptors nor goroutines before the gossip layer sees a frame. The
// zero value selects the defaults above. All real backends accept a
// Limits: the TCP backends apply every field, the UDP backend applies
// MaxConns to concurrent handler dispatch (datagrams have no keep-alive).
type Limits struct {
	// MaxConns caps how many accepted connections the listener serves
	// concurrently. A connection arriving at the cap is closed immediately
	// and counted in Stats.AcceptRejects — backpressure instead of an
	// unbounded goroutine per accept. Zero selects DefaultMaxConns;
	// negative means unlimited (the pre-hardening behaviour).
	//
	// On the UDP backend MaxConns instead caps concurrent handler
	// goroutines: a datagram arriving while all slots are busy is dropped
	// and counted in Stats.AcceptRejects.
	MaxConns int
	// KeepAlive is the read budget between frames for served connections
	// that have initiated at least one pull (WantReply) exchange. A
	// connection idle past its budget is closed and counted in
	// Stats.KeepAliveEvictions.
	//
	// Protocol note: pooled initiators evict their own idle connections
	// within PoolConfig.IdleTimeout (at most DefaultIdleTimeout). Keeping
	// KeepAlive above that is what guarantees the initiating side always
	// abandons a connection before this side closes it — closing first
	// would let a peer write a push into a dead socket and lose it
	// silently. Setting KeepAlive at or below DefaultIdleTimeout trades
	// that guarantee for faster fd reclamation; gossip tolerates the
	// resulting rare push loss (delivery is best-effort by contract), but
	// prefer lowering PoolConfig.IdleTimeout cluster-wide in step. Zero
	// selects DefaultKeepAlive.
	KeepAlive time.Duration
	// PushOnlyKeepAlive is the shrunken budget for connections that have
	// never initiated a pull. Peers that only ever push are exactly what a
	// resource-holding attack looks like from the passive side, so they
	// earn a shorter budget; a single pull upgrades the connection to the
	// full KeepAlive. Zero derives DefaultPushOnlyKeepAlive, scaled
	// proportionally when KeepAlive is non-default. Must not exceed
	// KeepAlive.
	PushOnlyKeepAlive time.Duration
	// FirstFrameTimeout bounds how long an accepted connection may sit
	// silent before its opening frame — the slowloris window. Expiry
	// counts in Stats.KeepAliveEvictions. Zero selects the smaller of the
	// dial timeout (5s) and PushOnlyKeepAlive.
	FirstFrameTimeout time.Duration
}

// fill validates lim and resolves zero values to defaults.
func (lim *Limits) fill() error {
	if lim.MaxConns == 0 {
		lim.MaxConns = DefaultMaxConns
	}
	switch {
	case lim.KeepAlive < 0 || lim.PushOnlyKeepAlive < 0 || lim.FirstFrameTimeout < 0:
		return fmt.Errorf("transport: negative keep-alive limit %+v", *lim)
	case lim.KeepAlive == 0:
		lim.KeepAlive = DefaultKeepAlive
	case lim.KeepAlive < time.Millisecond:
		return fmt.Errorf("transport: keep-alive %v is below the 1ms minimum", lim.KeepAlive)
	}
	if lim.PushOnlyKeepAlive == 0 {
		// Scale the 3/4 default ratio with a non-default KeepAlive so the
		// shrink survives aggressive tunings.
		lim.PushOnlyKeepAlive = 3 * lim.KeepAlive / 4
	}
	if lim.PushOnlyKeepAlive > lim.KeepAlive {
		return fmt.Errorf("transport: push-only keep-alive %v exceeds keep-alive %v",
			lim.PushOnlyKeepAlive, lim.KeepAlive)
	}
	if lim.FirstFrameTimeout == 0 {
		lim.FirstFrameTimeout = tcpDefaultTimeout
		if lim.PushOnlyKeepAlive < lim.FirstFrameTimeout {
			lim.FirstFrameTimeout = lim.PushOnlyKeepAlive
		}
	}
	return nil
}

// budget returns the read deadline budget for the next frame of a served
// connection: the slowloris window before the opening frame, then the
// keep-alive matching what the connection has earned.
func (lim *Limits) budget(first, pulled bool) time.Duration {
	switch {
	case first:
		return lim.FirstFrameTimeout
	case pulled:
		return lim.KeepAlive
	default:
		return lim.PushOnlyKeepAlive
	}
}

// LimitsUpdater is implemented by transports whose hardening limits can
// be replaced on a live listener. All real backends implement it: the
// new limits govern the connection cap immediately (connections already
// over a lowered cap finish serving; only new arrivals are refused) and
// the keep-alive budgets from each served connection's next frame.
type LimitsUpdater interface {
	// SetLimits validates lim (zero fields select defaults, exactly as at
	// construction) and applies it to the running listener.
	SetLimits(lim Limits) error
}

// limitsBox holds a listener's current Limits behind an atomic pointer
// so SetLimits can swap them while served connections read the budget
// schedule frame by frame. The stored value is always filled (validated,
// defaults resolved) and never mutated after store.
type limitsBox struct {
	p atomic.Pointer[Limits]
}

// store publishes an already-filled Limits.
func (b *limitsBox) store(lim Limits) { b.p.Store(&lim) }

// load returns the current Limits; the caller must not mutate them.
func (b *limitsBox) load() *Limits { return b.p.Load() }

// connGate enforces Limits.MaxConns on a listener's accept path. Slots
// are acquired without blocking: a connection beyond the cap is the
// caller's to close (and count), which keeps the accept loop draining the
// kernel backlog instead of letting a flood park there and starve
// legitimate dials behind it. The cap is resizable (SetLimits): a
// counter under a mutex rather than a channel semaphore, so lowering the
// cap below the current occupancy simply refuses new arrivals until
// enough in-flight connections drain.
type connGate struct {
	rejects *atomic.Uint64

	mu     sync.Mutex
	active int
	max    int // <= 0 means unlimited
}

func newConnGate(maxConns int, rejects *atomic.Uint64) *connGate {
	return &connGate{rejects: rejects, max: maxConns}
}

// tryAcquire claims a serve slot, reporting false (and counting the
// reject) when the listener is at capacity.
func (g *connGate) tryAcquire() bool {
	g.mu.Lock()
	if g.max > 0 && g.active >= g.max {
		g.mu.Unlock()
		g.rejects.Add(1)
		return false
	}
	g.active++
	g.mu.Unlock()
	return true
}

// release returns a slot claimed by tryAcquire.
func (g *connGate) release() {
	g.mu.Lock()
	g.active--
	g.mu.Unlock()
}

// setMax replaces the connection cap for future arrivals.
func (g *connGate) setMax(maxConns int) {
	g.mu.Lock()
	g.max = maxConns
	g.mu.Unlock()
}
