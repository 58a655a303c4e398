// Package runtime is the asynchronous, deployable implementation of the
// peer sampling service: each node runs the active and passive threads of
// the paper's Figure 1 as goroutines over a pluggable transport, and
// exposes the paper's two-method API (init and getPeer) as Service.
//
// The cycle-based simulator (internal/sim) and this runtime share the same
// protocol state machine (internal/core); the runtime adds real time,
// concurrency and message passing.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"peersampling/internal/core"
	"peersampling/internal/loop"
	"peersampling/internal/transport"
)

// Service is the peer sampling service API of Section 2 of the paper.
type Service interface {
	// Init initialises the service with one or more contact addresses
	// (the paper's init(); bootstrap is outside the protocol proper).
	Init(contacts []string) error
	// GetPeer returns the address of a peer sampled from the service's
	// current view (the paper's getPeer()).
	GetPeer() (string, error)
}

// Config parameterises a runtime node.
type Config struct {
	// Protocol is the gossip protocol tuple to execute.
	Protocol core.Protocol
	// ViewSize is the partial view capacity c.
	ViewSize int
	// Period is the cycle length T of the active thread. Zero selects
	// DefaultPeriod.
	Period time.Duration
	// Seed makes peer/view selection deterministic; zero derives a seed
	// from the address.
	Seed uint64
	// ExchangeTimeout bounds one exchange; zero selects DefaultTimeout.
	ExchangeTimeout time.Duration
	// Diverse makes GetPeer cycle through a shuffled copy of the view
	// before repeating any peer — the "maximize diversity" refinement the
	// paper sketches for getPeer implementations.
	Diverse bool
	// OnError, when set, observes failed exchanges (unreachable peers,
	// timeouts). Errors are expected during churn and never fatal.
	//
	// Concurrency contract: OnError may be called concurrently from both
	// threads of control that drive exchanges — the node's own active
	// thread (started by Start) and any goroutine calling Tick directly —
	// and a Combined service whose two instances share one callback adds
	// two more. Implementations must therefore be safe for concurrent use
	// (an atomic counter suffices; no external locking is provided). The
	// callback is invoked with no node locks held, so it may call back
	// into the node (View, Stats, GetPeer) without deadlocking.
	OnError func(error)
	// Faults, when non-nil, shapes every exchange this node initiates,
	// gossip or app: rules matching (own address, peer) cut, drop or
	// delay it before the transport runs. Injected latency counts
	// against the exchange timeout and its measured round trip. Nodes
	// may share one set; nil injects nothing.
	Faults *transport.FaultSet
}

// Defaults for Config zero values.
const (
	DefaultPeriod  = time.Second
	DefaultTimeout = 5 * time.Second
)

// Node is a runtime peer sampling node.
type Node struct {
	cfg       Config
	transport transport.Transport
	addr      string // the transport's bound address, fixed for its lifetime

	mu    sync.Mutex
	state *core.Node[string]
	rng   *rand.Rand // seeded GetPeer sampling RNG (guarded by mu)
	queue []string   // shuffled sampling queue for Diverse mode

	runMu  sync.Mutex
	active *loop.Loop // the active thread; nil until Start
	closed bool

	exchanges  uint64 // completed active exchanges
	failures   uint64 // failed active exchanges
	handled    uint64 // passive exchanges served
	cyclesObsv uint64 // active cycles run

	// lat holds round-trip times of completed active exchanges (failures
	// are counted, not timed — a timeout would only ever record the
	// configured deadline). Atomic internally, so it lives outside mu.
	lat transport.LatencyHistogram
}

var _ Service = (*Node)(nil)

// New constructs a node and its transport endpoint using the given
// factory. The node's address is whatever the transport reports.
func New(cfg Config, factory transport.Factory) (*Node, error) {
	if !cfg.Protocol.Valid() {
		return nil, fmt.Errorf("runtime: invalid protocol %+v", cfg.Protocol)
	}
	if cfg.ViewSize <= 0 {
		return nil, fmt.Errorf("runtime: view size must be positive, got %d", cfg.ViewSize)
	}
	if cfg.Period == 0 {
		cfg.Period = DefaultPeriod
	}
	if cfg.ExchangeTimeout == 0 {
		cfg.ExchangeTimeout = DefaultTimeout
	}
	n := &Node{cfg: cfg}
	tr, err := factory(n.handleRequest)
	if err != nil {
		return nil, fmt.Errorf("runtime: transport: %w", err)
	}
	n.transport = tr
	n.addr = tr.Addr()
	seed := cfg.Seed
	if seed == 0 {
		seed = hashString(n.addr)
	}
	state, err := core.NewNode(n.addr, cfg.Protocol, cfg.ViewSize,
		rand.New(rand.NewPCG(seed, 0x90DE)))
	if err != nil {
		_ = tr.Close()
		return nil, err
	}
	n.state = state
	// A distinct stream keeps GetPeer sampling, in either mode, from
	// perturbing the protocol's own peer/view selection sequence.
	n.rng = rand.New(rand.NewPCG(seed, 0x6E7))
	return n, nil
}

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.addr }

// Protocol returns the protocol tuple the node executes.
func (n *Node) Protocol() core.Protocol { return n.cfg.Protocol }

// Init implements Service: it seeds the view with the contact addresses at
// hop count zero. Calling Init on a node that already has a view merely
// adds the contacts, which matches the paper's "initializes the service
// ... if this has not been done before". Contact addresses are trimmed of
// surrounding whitespace; the node's own address is dropped (a view must
// never contain its owner) and duplicate contacts collapse to one entry
// (Bootstrap filters and deduplicates).
func (n *Node) Init(contacts []string) error {
	descs := make([]core.Descriptor[string], 0, len(contacts))
	for _, c := range contacts {
		c = strings.TrimSpace(c)
		if c == "" {
			return errors.New("runtime: empty contact address")
		}
		descs = append(descs, core.Descriptor[string]{Addr: c, Hop: 0})
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// Bootstrap sorts stably by hop, so listing the contacts first keeps
	// them ahead of resident entries of equal hop.
	n.state.Bootstrap(append(descs, n.state.View().Descriptors()...))
	return nil
}

// GetPeer implements Service.
func (n *Node) GetPeer() (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	view := n.state.View()
	if !n.cfg.Diverse {
		if view.Len() == 0 {
			return "", core.ErrEmptyView
		}
		return view.At(n.rng.IntN(view.Len())).Addr, nil
	}
	// Diverse mode: drain a shuffled snapshot of the view, refilling it
	// when exhausted, so consecutive calls repeat a peer as rarely as the
	// view allows.
	for len(n.queue) > 0 {
		peer := n.queue[len(n.queue)-1]
		n.queue = n.queue[:len(n.queue)-1]
		if view.Contains(peer) {
			return peer, nil
		}
	}
	addrs := view.Addresses()
	if len(addrs) == 0 {
		return "", core.ErrEmptyView
	}
	n.rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	n.queue = addrs[1:]
	return addrs[0], nil
}

// View returns a copy of the node's current view descriptors.
func (n *Node) View() []core.Descriptor[string] {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state.View().Descriptors()
}

// Stats reports lifetime counters: active cycles run, completed and failed
// active exchanges, and passive exchanges served.
func (n *Node) Stats() (cycles, exchanges, failures, handled uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cyclesObsv, n.exchanges, n.failures, n.handled
}

// TransportStats reports the endpoint's wire-level counters (dials,
// connection reuses, bytes in/out, dropped datagrams). ok is false when
// the underlying transport keeps no counters (e.g. the in-memory fabric).
func (n *Node) TransportStats() (stats transport.Stats, ok bool) {
	r, ok := n.transport.(transport.StatsReporter)
	if !ok {
		return transport.Stats{}, false
	}
	return r.TransportStats(), true
}

// SetTransportLimits replaces the transport's hardening limits on the
// live endpoint — the hot path of a daemon config reload. ok is false
// when the underlying transport has no adjustable limits (e.g. the
// in-memory fabric), which is not an error: the caller's limits simply
// have nowhere to apply.
func (n *Node) SetTransportLimits(lim transport.Limits) (ok bool, err error) {
	u, ok := n.transport.(transport.LimitsUpdater)
	if !ok {
		return false, nil
	}
	return true, u.SetLimits(lim)
}

// Start launches the active thread: every Period the node ages its view
// and initiates one exchange, per Figure 1. Start is idempotent until
// Close.
func (n *Node) Start() error {
	n.runMu.Lock()
	defer n.runMu.Unlock()
	if n.closed {
		return errors.New("runtime: node closed")
	}
	if n.active == nil {
		n.active = loop.Every(func() time.Duration { return n.cfg.Period },
			func() bool { n.Tick(); return true })
	}
	return nil
}

// Close stops the active thread and shuts the transport down.
func (n *Node) Close() error {
	n.runMu.Lock()
	if n.closed {
		n.runMu.Unlock()
		return nil
	}
	n.closed = true
	active := n.active
	n.runMu.Unlock()
	if active != nil {
		active.Stop()
	}
	return n.transport.Close()
}

// Tick runs one active cycle synchronously: age the view, select a peer,
// exchange. Tests and single-threaded drivers call it directly; Start
// calls it on the period ticker.
func (n *Node) Tick() {
	n.mu.Lock()
	n.cyclesObsv++
	n.state.AgeView()
	peer, req, err := n.state.InitiateExchange()
	n.mu.Unlock()
	if err != nil {
		return // empty view; wait for bootstrap or an incoming exchange
	}

	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ExchangeTimeout)
	defer cancel()
	began := time.Now()
	var resp transport.Response
	var ok bool
	if err = n.cfg.Faults.Apply(ctx, n.addr, peer); err == nil {
		resp, ok, err = n.transport.Exchange(ctx, peer, req)
	}
	elapsed := time.Since(began)

	n.mu.Lock()
	if err != nil {
		n.failures++
		n.mu.Unlock()
		// Invoked outside the node lock so the callback may call back into
		// the node; see the Config.OnError contract.
		if n.cfg.OnError != nil {
			n.cfg.OnError(fmt.Errorf("runtime: exchange with %s: %w", peer, err))
		}
		return
	}
	n.exchanges++
	if ok {
		n.state.HandleResponse(resp)
	}
	n.mu.Unlock()
	n.lat.Observe(elapsed)
}

// SetAppHandler installs h as the node's application payload handler,
// delivered incoming workload messages by the transport. ok is false
// when the transport cannot carry app payloads (none of the real
// backends decline; a custom Factory might).
func (n *Node) SetAppHandler(h transport.AppHandler) (ok bool) {
	c, ok := n.transport.(transport.AppCarrier)
	if !ok {
		return false
	}
	c.SetAppHandler(h)
	return true
}

// SendApp delivers an application payload on topic to peer over the
// node's transport and, when wantReply is set, returns the peer's reply
// payload. replied reports whether a reply arrived. The error surface
// matches transport.Exchange; a transport without app support returns an
// error immediately. Config.Faults applies as it does to gossip.
func (n *Node) SendApp(ctx context.Context, peer, topic string, payload []byte, wantReply bool) (reply []byte, replied bool, err error) {
	c, ok := n.transport.(transport.AppCarrier)
	if !ok {
		return nil, false, errors.New("runtime: transport cannot carry app payloads")
	}
	if err := n.cfg.Faults.Apply(ctx, n.addr, peer); err != nil {
		return nil, false, err
	}
	msg := transport.AppMessage{From: n.addr, Topic: topic, Payload: payload, WantReply: wantReply}
	resp, replied, err := c.ExchangeApp(ctx, peer, msg)
	if err != nil {
		return nil, false, err
	}
	return resp.Payload, replied, nil
}

// ExchangeLatency returns a snapshot of the node's exchange round-trip
// histogram: every completed active exchange since the node was created,
// over whatever transport it runs. Failed exchanges appear in Stats'
// failure counter instead — timing them would only ever record the
// configured timeout.
func (n *Node) ExchangeLatency() transport.LatencySnapshot {
	return n.lat.Snapshot()
}

// handleRequest is the passive thread, invoked by the transport.
func (n *Node) handleRequest(req transport.Request) (transport.Response, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handled++
	return n.state.HandleRequest(req)
}

// hashString derives a stable 64-bit seed from an address (FNV-1a).
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	if h == 0 {
		h = 1
	}
	return h
}
