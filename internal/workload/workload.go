// Package workload wires the address-generic application tier
// (internal/app) onto a live runtime node from configuration: it builds
// the engine a config.WorkloadSection describes, attaches it to the
// node's transport app-payload path and sampling service, and wraps the
// node so the engine's counters flow through internal/metrics alongside
// the node's own. The daemon's workload plugin is its consumer.
package workload

import (
	"fmt"
	"sync"
	"time"

	"peersampling/aggregate"
	"peersampling/broadcast"
	"peersampling/internal/app"
	"peersampling/internal/config"
	"peersampling/internal/loop"
	"peersampling/internal/runtime"
	"peersampling/internal/transport"
)

// New builds the engine ws describes. The section must already have
// passed config.Validate; unknown kinds still error rather than panic so
// hand-built sections fail loudly.
func New(ws config.WorkloadSection) (app.Engine[string], error) {
	switch ws.Kind {
	case config.WorkloadBroadcast:
		mode, err := broadcast.ParseMode(ws.Mode)
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		e, err := broadcast.NewEngine[string](ws.Fanout, mode, ws.TTL)
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		return e, nil
	case config.WorkloadAggregate:
		return aggregate.NewEngine[string](ws.Initial), nil
	default:
		return nil, fmt.Errorf("workload: unknown kind %q", ws.Kind)
	}
}

// Attachment is one engine running against one live node: the handler
// serving the node's incoming app payloads and the loop driving the
// engine's rounds. Close stops the rounds; the handler stays installed
// (a closed engine simply stops initiating, matching a node that keeps
// answering passive exchanges after its active thread stops).
type Attachment struct {
	// Handle is the handler Attach installed on the node's transport.
	Handle transport.AppHandler

	round  func() bool // one engine round against the node
	period time.Duration

	mu     sync.Mutex
	rounds *loop.Loop // nil until Start
	closed bool
}

// Attach installs e on node: incoming payloads on the engine's topic
// reach it through Handle, and the attachment (not yet started — call
// Start) ticks its rounds every period against the node's sampling
// service and transport; a non-positive period selects a second. It
// fails when the node's transport cannot carry app payloads.
func Attach(node *runtime.Node, e app.Engine[string], period time.Duration) (*Attachment, error) {
	h := app.Handler(node.Addr(), e)
	if !node.SetAppHandler(h) {
		return nil, fmt.Errorf("workload: transport cannot carry app payloads")
	}
	if period <= 0 {
		period = time.Second
	}
	src := app.SamplerSource{GetPeer: node.GetPeer}
	ep := &app.NodeEndpoint{Addr: node.Addr(), Topic: e.Topic(), Send: node.SendApp}
	round := func() bool { e.Tick(src, ep); return true }
	return &Attachment{Handle: h, round: round, period: period}, nil
}

// Start launches the round loop. Start is idempotent until Close, and
// does nothing after it.
func (a *Attachment) Start() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.rounds != nil || a.closed {
		return
	}
	a.rounds = loop.Every(func() time.Duration { return a.period }, a.round)
}

// Close stops the round loop. Close is idempotent.
func (a *Attachment) Close() {
	a.mu.Lock()
	a.closed = true
	rounds := a.rounds
	a.mu.Unlock()
	if rounds != nil {
		rounds.Stop()
	}
}

// NodeSource pairs a runtime node with its workload engine as one
// metrics source: embedding keeps every Node capability (Source,
// LatencySource) and AppSnapshot adds the metrics.AppSource one.
type NodeSource struct {
	*runtime.Node
	engine app.Engine[string]
}

// NewNodeSource wraps node and engine for collector registration.
func NewNodeSource(node *runtime.Node, e app.Engine[string]) *NodeSource {
	return &NodeSource{Node: node, engine: e}
}

// AppSnapshot implements metrics.AppSource.
func (s *NodeSource) AppSnapshot() (app.Snapshot, bool) {
	if s.engine == nil {
		return app.Snapshot{}, false
	}
	return s.engine.Snapshot(), true
}
