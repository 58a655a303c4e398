package sim

import (
	"fmt"
	"math/rand/v2"

	"peersampling/internal/core"
)

// NodeID identifies a simulated node; IDs are dense indices assigned in
// join order and are never reused.
type NodeID = int32

// Config parameterises a simulated network.
type Config struct {
	// Protocol is the gossip protocol tuple every node executes.
	Protocol core.Protocol
	// ViewSize is the partial view capacity c (the paper uses 30).
	ViewSize int
	// Seed makes the whole simulation deterministic: node RNGs, cycle
	// shuffles and failure injection all derive from it.
	Seed uint64
}

func (c Config) validate() error {
	if !c.Protocol.Valid() {
		return fmt.Errorf("sim: invalid protocol %+v", c.Protocol)
	}
	if c.ViewSize <= 0 {
		return fmt.Errorf("sim: view size must be positive, got %d", c.ViewSize)
	}
	return nil
}

// Network is a simulated population of nodes running one protocol.
type Network struct {
	cfg   Config
	nodes []*core.Node[NodeID]
	alive []bool
	live  int
	cycle int
	rng   *rand.Rand // drives shuffles; distinct from per-node RNGs

	// scratch holds the per-cycle initiator order to avoid reallocation.
	scratch []NodeID

	// reqScratch, respScratch and merge (lent to every node) are the
	// sequential driver's exchange buffers: each is consumed before the
	// next exchange starts, so one of each suffices and steady-state
	// cycles do not allocate.
	reqScratch  []core.Descriptor[NodeID]
	respScratch []core.Descriptor[NodeID]
	merge       core.Scratch[NodeID]

	// sharded is the reusable state of the staged parallel cycle driver
	// (see sharded.go); nil until RunCycleSharded is first called.
	sharded *shardedEngine
}

// New returns an empty network. Nodes are added with Add or the bootstrap
// helpers in internal/scenario.
func New(cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Network{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, 0xC0FFEE)),
	}, nil
}

// MustNew is New for static configurations known to be valid; it panics on
// error and exists to keep experiment drivers readable.
func MustNew(cfg Config) *Network {
	n, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Config returns the network configuration.
func (w *Network) Config() Config { return w.cfg }

// Cycle returns the number of completed cycles.
func (w *Network) Cycle() int { return w.cycle }

// Size returns the total number of IDs ever assigned, dead or alive.
func (w *Network) Size() int { return len(w.nodes) }

// LiveCount returns the number of live nodes.
func (w *Network) LiveCount() int { return w.live }

// Alive reports whether id is currently live.
func (w *Network) Alive(id NodeID) bool { return w.alive[id] }

// Node exposes the protocol state of a node, dead or alive. Intended for
// metrics and tests; mutating views mid-experiment invalidates results.
func (w *Network) Node(id NodeID) *core.Node[NodeID] { return w.nodes[id] }

// Add joins a new node whose view is bootstrapped with the given
// descriptors (commonly a single contact node) and returns its ID.
func (w *Network) Add(bootstrap []core.Descriptor[NodeID]) NodeID {
	id := NodeID(len(w.nodes))
	// Per-node RNG stream: derived from the seed and the node ID so runs
	// are reproducible regardless of join interleavings.
	n, err := core.NewNode(id, w.cfg.Protocol, w.cfg.ViewSize,
		rand.New(rand.NewPCG(w.cfg.Seed, uint64(id)+1)))
	if err != nil {
		// Config was validated in New; an error here is a programmer bug.
		panic(err)
	}
	n.ShareScratch(&w.merge)
	n.Bootstrap(bootstrap)
	w.nodes = append(w.nodes, n)
	w.alive = append(w.alive, true)
	w.live++
	return id
}

// Kill marks a node as failed. Its descriptors linger in other views as
// dead links until view selection flushes them; exchanges directed at it
// fail silently. Killing a dead node is a no-op.
func (w *Network) Kill(id NodeID) {
	if w.alive[id] {
		w.alive[id] = false
		w.live--
	}
}

// KillFraction fails the given fraction of live nodes chosen uniformly at
// random and returns the failed IDs.
func (w *Network) KillFraction(fraction float64) []NodeID {
	if fraction < 0 || fraction > 1 {
		panic(fmt.Sprintf("sim: kill fraction %v out of [0,1]", fraction))
	}
	ids := w.LiveIDs()
	w.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	count := int(float64(len(ids)) * fraction)
	for _, id := range ids[:count] {
		w.Kill(id)
	}
	return ids[:count]
}

// LiveIDs returns the IDs of all live nodes in ascending order.
func (w *Network) LiveIDs() []NodeID {
	return w.appendLiveIDs(make([]NodeID, 0, w.live))
}

// appendLiveIDs appends the IDs of all live nodes to dst in ascending ID
// order. Every cycle driver builds its initiator list through this helper:
// the ascending order is a determinism invariant — the seeded shuffle (or
// the staged schedule) is the only source of ordering randomness, so two
// networks built with the same seed and the same operation sequence replay
// identically.
func (w *Network) appendLiveIDs(dst []NodeID) []NodeID {
	for id, ok := range w.alive {
		if ok {
			dst = append(dst, NodeID(id))
		}
	}
	return dst
}

// RunCycle executes one protocol cycle: every node live at the start of
// the cycle initiates one exchange, in uniform random order. Exchanges are
// atomic; an exchange aimed at a dead peer fails without changing the
// initiator's state (the paper's protocols have no explicit failure
// handling).
func (w *Network) RunCycle() {
	w.scratch = w.appendLiveIDs(w.scratch[:0])
	w.rng.Shuffle(len(w.scratch), func(i, j int) {
		w.scratch[i], w.scratch[j] = w.scratch[j], w.scratch[i]
	})
	for _, id := range w.scratch {
		if !w.alive[id] {
			continue // failed mid-cycle by an external driver
		}
		w.exchange(id)
	}
	w.cycle++
}

// Run executes n cycles.
func (w *Network) Run(n int) {
	for i := 0; i < n; i++ {
		w.RunCycle()
	}
}

// exchange runs the active thread of one node for this cycle: the view
// ages by one cycle, then the node gossips with its selected peer. The
// request and response live in the network's reusable buffers — each is
// fully consumed before the next exchange rebuilds them.
func (w *Network) exchange(id NodeID) {
	node := w.nodes[id]
	node.AgeView()
	peer, err := node.SelectPeer()
	if err != nil {
		return // empty view: nothing to gossip with this cycle
	}
	req, reqBuf := node.MakeRequestInto(w.reqScratch)
	w.reqScratch = reqBuf
	if !w.alive[peer] {
		return
	}
	resp, respBuf, ok := w.nodes[peer].HandleRequestInto(req, w.respScratch)
	w.respScratch = respBuf
	if ok {
		node.HandleResponse(resp)
	}
}

// DeadLinks counts descriptors in live nodes' views that point at dead
// nodes — the y axis of the paper's Figure 7.
func (w *Network) DeadLinks() int {
	total := 0
	for id, ok := range w.alive {
		if !ok {
			continue
		}
		v := w.nodes[id].View()
		for i := 0; i < v.Len(); i++ {
			if !w.alive[v.At(i).Addr] {
				total++
			}
		}
	}
	return total
}

// SamplePeer implements the service's getPeer() for a simulated node: a
// uniform random member of its current view.
func (w *Network) SamplePeer(id NodeID) (NodeID, error) {
	return w.nodes[id].RandomPeer()
}
