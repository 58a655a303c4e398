// Package app is the address-generic application tier of the peer
// sampling service: the contract between workload engines (epidemic
// broadcast, push-pull aggregation) and whatever carries their payloads.
//
// The paper frames peer sampling as a *service* consumed by epidemic
// applications through getPeer(). This package pins that boundary down as
// two tiny interfaces — PeerSource (draw a gossip partner) and Endpoint
// (deliver an app payload to one) — parameterised over the address type,
// so the same engine code runs against three backends:
//
//   - the cycle simulator (addresses are sim.NodeID, delivery is a
//     synchronous call; see Uniform and Overlay),
//   - a live runtime node (addresses are "host:port" strings, GetPeer is
//     the source and the transport's app-payload frames the endpoint; see
//     SamplerSource, NodeEndpoint and Handler; internal/workload drives
//     the rounds),
//   - the daemon (a workload plugin wiring the above from config).
//
// Engines are round-driven: each Tick draws partners and delivers
// payloads; incoming payloads arrive through OnMessage. A Snapshot of
// counters flows into internal/metrics.
package app

// PeerSource yields gossip partners for one node — the paper's getPeer()
// reduced to its essence. Draw reports false when no partner is known
// (empty view, population of one).
type PeerSource[A comparable] interface {
	Draw() (A, bool)
}

// Endpoint delivers application payloads from one node to its peers.
// Deliver sends payload to peer and, when wantReply is set, returns the
// peer's reply payload; replied reports whether one arrived. Push-only
// delivery is best-effort, mirroring transport.Exchange.
type Endpoint[A comparable] interface {
	// Self returns this endpoint's own address, which engines use to
	// stamp outgoing messages and recognise themselves.
	Self() A
	Deliver(peer A, payload []byte, wantReply bool) (reply []byte, replied bool, err error)
}

// Engine is a round-driven workload running over a peer source and an
// endpoint. Implementations must be safe for concurrent use: on a live
// node Tick (the round driver) and OnMessage (the transport's delivery
// path) run on different goroutines.
type Engine[A comparable] interface {
	// Topic names the engine's payload stream; the live Handler routes
	// incoming messages by it.
	Topic() string
	// Tick runs one round: draw partners from src, deliver payloads via
	// ep, absorb replies.
	Tick(src PeerSource[A], ep Endpoint[A])
	// OnMessage absorbs one incoming payload and returns the reply when
	// the message warrants one. The payload is only valid for the
	// duration of the call (transport buffer ownership); engines that
	// retain it must copy.
	OnMessage(from A, payload []byte) (reply []byte, hasReply bool)
	// Snapshot reports the engine's counters and headline gauge.
	Snapshot() Snapshot
}

// Snapshot is the observable state of one workload engine, shaped for
// the metrics pipeline (JSON-tagged so it rides the fleet agent's
// /snapshot endpoint unchanged).
type Snapshot struct {
	// Workload names the engine kind ("broadcast", "aggregate").
	Workload string `json:"workload"`
	// Rounds counts Tick calls; Sent and Received count app payloads
	// delivered and absorbed; Failures counts deliveries that errored.
	Rounds   uint64 `json:"rounds"`
	Sent     uint64 `json:"sent"`
	Received uint64 `json:"received"`
	Failures uint64 `json:"failures"`
	// Infected is 1 when a broadcast engine holds the rumor, else 0.
	Infected float64 `json:"infected"`
	// Value is an aggregate engine's current estimate.
	Value float64 `json:"value"`
}
