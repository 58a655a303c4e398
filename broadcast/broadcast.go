// Package broadcast implements gossip-based epidemic information
// dissemination on top of a peer sampling service — the canonical
// application class that motivates the paper (its reference [6, 9]
// lineage: anti-entropy and rumor mongering).
//
// The workload is an address-generic app.Engine: in every round each
// infected node draws `fanout` peers from its peer source and pushes the
// rumor to them through its endpoint. The same engine runs against the
// cycle simulator (Run, with app.Uniform or app.Overlay as the source),
// against a live runtime node (workload.Attachment over the transport's
// app-payload frames), and inside the daemon's workload plugin — so the
// effect of non-uniform sampling on dissemination can be measured both
// in simulation and across real processes.
package broadcast

import (
	"fmt"
	"sync"

	"peersampling/internal/app"
	"peersampling/internal/sim"
)

// Topic is the app-payload stream the broadcast engine listens on.
const Topic = "broadcast"

// UniformSalt is the RNG stream of the uniform peer source historically
// used by this workload; pass it to app.NewUniform to reproduce the
// package's fixed-seed results.
const UniformSalt = 0xB07

// Mode selects the epidemic variant.
type Mode uint8

const (
	// InfectForever: infected nodes gossip in every subsequent round
	// (proactive anti-entropy style).
	InfectForever Mode = iota + 1
	// InfectAndDie: infected nodes gossip for TTL rounds after infection,
	// then stop (rumor mongering style).
	InfectAndDie
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case InfectForever:
		return "infect-forever"
	case InfectAndDie:
		return "infect-and-die"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ParseMode maps a mode name (as printed by String) back to the Mode;
// config files select the epidemic variant by name.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "infect-forever":
		return InfectForever, nil
	case "infect-and-die":
		return InfectAndDie, nil
	default:
		return 0, fmt.Errorf("broadcast: unknown mode %q", s)
	}
}

// Engine is one node's view of an epidemic dissemination: it holds the
// infection state and pushes the rumor to fanout peers per round. It is
// safe for concurrent use — on a live node Tick and OnMessage run on
// different goroutines.
type Engine[A comparable] struct {
	fanout int
	mode   Mode
	ttl    int

	mu       sync.Mutex
	infected bool
	budget   int // remaining gossip rounds (InfectAndDie)
	rumor    []byte
	rounds   uint64
	sent     uint64
	received uint64
	failures uint64
}

var _ app.Engine[sim.NodeID] = (*Engine[sim.NodeID])(nil)

// NewEngine returns an uninfected engine. ttl is ignored for
// InfectForever.
func NewEngine[A comparable](fanout int, mode Mode, ttl int) (*Engine[A], error) {
	if fanout <= 0 {
		return nil, fmt.Errorf("broadcast: fanout must be positive, got %d", fanout)
	}
	if mode != InfectForever && mode != InfectAndDie {
		return nil, fmt.Errorf("broadcast: invalid mode %d", mode)
	}
	if mode == InfectAndDie && ttl <= 0 {
		return nil, fmt.Errorf("broadcast: infect-and-die needs TTL > 0, got %d", ttl)
	}
	return &Engine[A]{fanout: fanout, mode: mode, ttl: ttl}, nil
}

// Topic implements app.Engine.
func (e *Engine[A]) Topic() string { return Topic }

// Infect seeds the rumor locally (the dissemination source calls this
// once). It reports false when the engine was already infected.
func (e *Engine[A]) Infect(rumor []byte) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.infected {
		return false
	}
	e.infected = true
	e.budget = e.ttl
	e.rumor = append([]byte(nil), rumor...)
	return true
}

// Infected reports whether the engine holds the rumor.
func (e *Engine[A]) Infected() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.infected
}

// Gossiping reports whether the engine will push the rumor on its next
// round: infected and, for InfectAndDie, still holding gossip budget.
func (e *Engine[A]) Gossiping() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.infected && (e.mode == InfectForever || e.budget > 0)
}

// Tick implements app.Engine: push the rumor to fanout drawn peers, then
// spend one round of gossip budget.
func (e *Engine[A]) Tick(src app.PeerSource[A], ep app.Endpoint[A]) {
	e.mu.Lock()
	e.rounds++
	gossip := e.infected && (e.mode == InfectForever || e.budget > 0)
	rumor := e.rumor // immutable after Infect; safe to share
	e.mu.Unlock()
	if !gossip {
		return
	}
	self := ep.Self()
	for i := 0; i < e.fanout; i++ {
		peer, ok := src.Draw()
		if !ok {
			break // empty view: nothing to gossip to this round
		}
		if peer == self {
			continue
		}
		_, _, err := ep.Deliver(peer, rumor, false)
		e.mu.Lock()
		if err != nil {
			e.failures++
		} else {
			e.sent++
		}
		e.mu.Unlock()
	}
	if e.mode == InfectAndDie {
		e.mu.Lock()
		if e.budget > 0 {
			e.budget--
		}
		e.mu.Unlock()
	}
}

// OnMessage implements app.Engine: absorb the rumor, becoming infected
// on first contact. Rumors are push-only; there is never a reply.
func (e *Engine[A]) OnMessage(from A, payload []byte) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.received++
	if !e.infected {
		e.infected = true
		e.budget = e.ttl
		e.rumor = append([]byte(nil), payload...)
	}
	return nil, false
}

// Snapshot implements app.Engine.
func (e *Engine[A]) Snapshot() app.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := app.Snapshot{
		Workload: Topic,
		Rounds:   e.rounds,
		Sent:     e.sent,
		Received: e.received,
		Failures: e.failures,
	}
	if e.infected {
		s.Infected = 1
	}
	return s
}

// Config parameterises a simulated dissemination run.
type Config struct {
	// Fanout is the number of peers an infected node gossips to per
	// round.
	Fanout int
	// Mode selects the epidemic variant.
	Mode Mode
	// TTL is the number of rounds a node gossips after infection
	// (InfectAndDie only).
	TTL int
	// MaxRounds bounds the run; the epidemic usually saturates in
	// O(log N) rounds.
	MaxRounds int
	// Source is the node where the rumor starts.
	Source sim.NodeID
	// Seed drives all randomness of the run.
	Seed uint64
}

func (c Config) validate(n int) error {
	if c.Fanout <= 0 {
		return fmt.Errorf("broadcast: fanout must be positive, got %d", c.Fanout)
	}
	if c.Mode != InfectForever && c.Mode != InfectAndDie {
		return fmt.Errorf("broadcast: invalid mode %d", c.Mode)
	}
	if c.Mode == InfectAndDie && c.TTL <= 0 {
		return fmt.Errorf("broadcast: infect-and-die needs TTL > 0, got %d", c.TTL)
	}
	if c.MaxRounds <= 0 {
		return fmt.Errorf("broadcast: max rounds must be positive, got %d", c.MaxRounds)
	}
	if int(c.Source) >= n || c.Source < 0 {
		return fmt.Errorf("broadcast: source %d out of range for %d nodes", c.Source, n)
	}
	return nil
}

// Result reports one dissemination run.
type Result struct {
	// InfectedPerRound[r] is the number of infected nodes after round r
	// (index 0 is the initial state with one infected node).
	InfectedPerRound []int
	// RoundsToAll is the first round at which every node was infected,
	// or -1 if coverage was incomplete at MaxRounds.
	RoundsToAll int
	// NeverReached is the number of nodes still uninfected at the end.
	NeverReached int
}

// Coverage returns the final fraction of infected nodes.
func (r Result) Coverage() float64 {
	if len(r.InfectedPerRound) == 0 {
		return 0
	}
	last := r.InfectedPerRound[len(r.InfectedPerRound)-1]
	return float64(last) / float64(last+r.NeverReached)
}

// simEndpoint is the simulation backend of app.Endpoint: delivery is a
// synchronous call into the destination engine, and the endpoint records
// the infections each delivery causes so the driver can maintain the
// active set exactly as the historical sequential implementation did.
type simEndpoint struct {
	engines []*Engine[sim.NodeID]
	self    sim.NodeID
	newly   []sim.NodeID
}

func (ep *simEndpoint) Self() sim.NodeID { return ep.self }

func (ep *simEndpoint) Deliver(peer sim.NodeID, payload []byte, wantReply bool) ([]byte, bool, error) {
	if peer < 0 || int(peer) >= len(ep.engines) {
		return nil, false, nil
	}
	dst := ep.engines[peer]
	was := dst.Infected()
	reply, has := dst.OnMessage(ep.self, payload)
	if !was && dst.Infected() {
		ep.newly = append(ep.newly, peer)
	}
	return reply, has, nil
}

// Run executes one epidemic dissemination over the given peer source on
// the simulator: one engine per node, synchronous delivery, the active
// set advanced in the exact order of the historical implementation (so
// fixed-seed results are unchanged).
func Run(cfg Config, src app.Source[sim.NodeID]) (Result, error) {
	n := src.Size()
	if err := cfg.validate(n); err != nil {
		return Result{}, err
	}
	engines := make([]*Engine[sim.NodeID], n)
	for i := range engines {
		e, err := NewEngine[sim.NodeID](cfg.Fanout, cfg.Mode, cfg.TTL)
		if err != nil {
			return Result{}, err
		}
		engines[i] = e
	}
	engines[cfg.Source].Infect([]byte("rumor"))
	count := 1
	res := Result{InfectedPerRound: []int{count}, RoundsToAll: -1}

	ep := &simEndpoint{engines: engines}
	active := []sim.NodeID{cfg.Source}
	for round := 1; round <= cfg.MaxRounds && count < n; round++ {
		next := active[:0:len(active)] // fresh slice, reuse capacity
		ep.newly = ep.newly[:0]
		for _, id := range active {
			ep.self = id
			engines[id].Tick(src.For(id), ep)
			if engines[id].Gossiping() {
				next = append(next, id)
			}
		}
		count += len(ep.newly)
		active = append(next, ep.newly...)
		res.InfectedPerRound = append(res.InfectedPerRound, count)
		if count == n && res.RoundsToAll < 0 {
			res.RoundsToAll = round
		}
		src.Step()
	}
	res.NeverReached = n - count
	return res, nil
}
