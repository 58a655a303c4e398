// Package aggregate implements gossip-based push-pull averaging on top of
// a peer sampling service — the aggregation application class the paper
// motivates (its references [16, 14, 13]: Kempe et al. and the
// Jelasity/Montresor line of proactive aggregation).
//
// Every node holds a numeric value; in each round every node draws one
// peer from the sampling service and the pair replaces both values with
// their mean. Under ideal uniform sampling the empirical variance decays
// exponentially (by roughly 1/(2*sqrt(e)) per round); running the same
// protocol over a gossip overlay measures how much the non-uniformity of
// real peer sampling costs.
//
// Setting one node's value to 1 and all others to 0 turns the aggregator
// into a network size estimator: every value converges to 1/N.
//
// The workload is an address-generic app.Engine: the same engine runs on
// the cycle simulator (Run), over a live runtime node's transport
// (workload.Attachment), and inside the daemon's workload plugin. On the
// wire one payload carries an op byte and a float64; the push-pull op
// exchanges estimates, the set op (re)initialises a node's value so
// experiments can seed a live fleet remotely.
package aggregate

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"peersampling/internal/app"
	"peersampling/internal/sim"
	"peersampling/internal/stats"
)

// Topic is the app-payload stream the aggregation engine listens on.
const Topic = "aggregate"

// UniformSalt is the RNG stream of the uniform peer source historically
// used by this workload; pass it to app.NewUniform to reproduce the
// package's fixed-seed results.
const UniformSalt = 0xA99

// Payload ops. A payload is one op byte followed by a big-endian float64.
const (
	opPushPull = 0 // exchange estimates: the reply carries the peer's pre-merge value
	opSet      = 1 // overwrite the estimate (experiment seeding); never replied
)

// payloadSize is the encoded length of every aggregate payload.
const payloadSize = 9

// EncodePushPull encodes the initiator half of a push-pull exchange.
func EncodePushPull(value float64) []byte { return encodePayload(opPushPull, value) }

// EncodeSet encodes a value overwrite, used by experiment drivers to
// (re)initialise live nodes remotely.
func EncodeSet(value float64) []byte { return encodePayload(opSet, value) }

func encodePayload(op byte, value float64) []byte {
	buf := make([]byte, payloadSize)
	buf[0] = op
	binary.BigEndian.PutUint64(buf[1:], math.Float64bits(value))
	return buf
}

func decodePayload(p []byte) (op byte, value float64, ok bool) {
	if len(p) != payloadSize {
		return 0, 0, false
	}
	return p[0], math.Float64frombits(binary.BigEndian.Uint64(p[1:])), true
}

// Engine is one node's view of a push-pull averaging run: it holds the
// local estimate and exchanges it with one drawn peer per round. It is
// safe for concurrent use — on a live node Tick and OnMessage run on
// different goroutines.
type Engine[A comparable] struct {
	mu       sync.Mutex
	est      float64
	rounds   uint64
	sent     uint64
	received uint64
	failures uint64
}

var _ app.Engine[sim.NodeID] = (*Engine[sim.NodeID])(nil)

// NewEngine returns an engine holding the given initial value.
func NewEngine[A comparable](initial float64) *Engine[A] {
	return &Engine[A]{est: initial}
}

// Topic implements app.Engine.
func (e *Engine[A]) Topic() string { return Topic }

// Value returns the current estimate.
func (e *Engine[A]) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.est
}

// SetValue overwrites the estimate (local experiment seeding; remote
// seeding uses EncodeSet payloads).
func (e *Engine[A]) SetValue(v float64) {
	e.mu.Lock()
	e.est = v
	e.mu.Unlock()
}

// Tick implements app.Engine: push-pull with one drawn peer. The
// exchange is performed without holding the engine lock — two live nodes
// initiating at each other simultaneously must not deadlock — so a
// concurrent passive merge can land mid-exchange; the reply is then
// folded in as a delta, which conserves the population's mass exactly.
func (e *Engine[A]) Tick(src app.PeerSource[A], ep app.Endpoint[A]) {
	e.mu.Lock()
	e.rounds++
	sent := e.est
	e.mu.Unlock()
	peer, ok := src.Draw()
	if !ok {
		return // empty view: wait for the overlay to bootstrap
	}
	if peer == ep.Self() {
		return
	}
	reply, replied, err := ep.Deliver(peer, EncodePushPull(sent), true)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		e.failures++
		return
	}
	e.sent++
	if !replied {
		return
	}
	op, v, ok := decodePayload(reply)
	if !ok || op != opPushPull {
		return
	}
	if e.est == sent {
		// No concurrent update landed: plain averaging, bit-identical to
		// the sequential simulator's (est+peer)/2.
		e.est = (sent + v) / 2
	} else {
		e.est += (v - sent) / 2
	}
}

// OnMessage implements app.Engine: the passive half of a push-pull
// exchange (reply with the pre-merge estimate), or a set op.
func (e *Engine[A]) OnMessage(from A, payload []byte) ([]byte, bool) {
	op, v, ok := decodePayload(payload)
	if !ok {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.received++
	switch op {
	case opSet:
		e.est = v
		return nil, false
	case opPushPull:
		old := e.est
		e.est = (old + v) / 2
		return EncodePushPull(old), true
	default:
		return nil, false
	}
}

// Snapshot implements app.Engine.
func (e *Engine[A]) Snapshot() app.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return app.Snapshot{
		Workload: Topic,
		Rounds:   e.rounds,
		Sent:     e.sent,
		Received: e.received,
		Failures: e.failures,
		Value:    e.est,
	}
}

// Config parameterises a simulated averaging run.
type Config struct {
	// Rounds is the number of gossip rounds to execute.
	Rounds int
	// Seed drives the per-round node ordering.
	Seed uint64
}

// Result reports one averaging run.
type Result struct {
	// TrueMean is the invariant mean of the initial values.
	TrueMean float64
	// VariancePerRound[r] is the empirical variance of node estimates
	// after round r (index 0 is the initial state).
	VariancePerRound []float64
	// Estimates holds the final per-node estimates.
	Estimates []float64
	// MaxError is the largest |estimate - TrueMean| at the end.
	MaxError float64
}

// ConvergenceRate returns the geometric mean per-round variance reduction
// factor over the run (smaller is faster); 1 means no convergence.
func (r Result) ConvergenceRate() float64 {
	v := r.VariancePerRound
	if len(v) < 2 || v[0] == 0 {
		return 1
	}
	last := v[len(v)-1]
	if last <= 0 {
		// Converged to exactly zero variance within the run; report the
		// strongest defensible bound from the last positive value.
		for i := len(v) - 1; i > 0; i-- {
			if v[i] > 0 {
				return math.Pow(v[i]/v[0], 1/float64(i))
			}
		}
		return 0
	}
	return math.Pow(last/v[0], 1/float64(len(v)-1))
}

// simEndpoint is the simulation backend of app.Endpoint: delivery is a
// synchronous call into the destination engine.
type simEndpoint struct {
	engines []*Engine[sim.NodeID]
	self    sim.NodeID
}

func (ep *simEndpoint) Self() sim.NodeID { return ep.self }

func (ep *simEndpoint) Deliver(peer sim.NodeID, payload []byte, wantReply bool) ([]byte, bool, error) {
	if peer < 0 || int(peer) >= len(ep.engines) {
		return nil, false, nil
	}
	reply, has := ep.engines[peer].OnMessage(ep.self, payload)
	return reply, has, nil
}

// Run executes push-pull averaging of the given initial values over the
// peer source on the simulator: one engine per node, synchronous
// delivery, per-round initiator order drawn exactly as the historical
// sequential implementation did (so fixed-seed results are unchanged).
// The values slice is not modified.
func Run(values []float64, cfg Config, src app.Source[sim.NodeID]) (Result, error) {
	n := src.Size()
	if len(values) != n {
		return Result{}, fmt.Errorf("aggregate: %d values for %d nodes", len(values), n)
	}
	if cfg.Rounds <= 0 {
		return Result{}, fmt.Errorf("aggregate: rounds must be positive, got %d", cfg.Rounds)
	}
	engines := make([]*Engine[sim.NodeID], n)
	for i := range engines {
		engines[i] = NewEngine[sim.NodeID](values[i])
	}
	res := Result{
		TrueMean:         stats.Mean(values),
		VariancePerRound: []float64{stats.Variance(values)},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xA66))
	order := make([]sim.NodeID, n)
	for i := range order {
		order[i] = sim.NodeID(i)
	}
	ep := &simEndpoint{engines: engines}
	est := make([]float64, n)
	for round := 1; round <= cfg.Rounds; round++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, id := range order {
			ep.self = id
			engines[id].Tick(src.For(id), ep)
		}
		for i, e := range engines {
			est[i] = e.Value()
		}
		res.VariancePerRound = append(res.VariancePerRound, stats.Variance(est))
		src.Step()
	}
	res.Estimates = est
	for _, e := range est {
		if d := abs(e - res.TrueMean); d > res.MaxError {
			res.MaxError = d
		}
	}
	return res, nil
}

// SizeEstimate interprets an estimate produced from a 1-at-one-node
// initialisation as a network size (1/value). It returns 0 for
// non-positive estimates.
func SizeEstimate(value float64) float64 {
	if value <= 0 {
		return 0
	}
	return 1 / value
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
