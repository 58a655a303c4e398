package app

import (
	"context"
	"time"

	"peersampling/internal/transport"
)

// Handler returns the transport.AppHandler that serves e on a live
// node — the passive side of the live backend. Messages on e's topic
// reach OnMessage and the reply is stamped with self; messages on any
// other topic are dropped (a pull initiator sees ok=false or a timeout,
// matching the transports' no-handler behaviour).
func Handler(self string, e Engine[string]) transport.AppHandler {
	topic := e.Topic()
	return func(msg transport.AppMessage) (transport.AppMessage, bool) {
		if msg.Topic != topic {
			return transport.AppMessage{}, false
		}
		reply, hasReply := e.OnMessage(msg.From, msg.Payload)
		if !hasReply {
			return transport.AppMessage{}, false
		}
		return transport.AppMessage{From: self, Topic: topic, Payload: reply}, true
	}
}

// SamplerSource adapts the peer sampling service's getPeer() to
// PeerSource[string] — the live analogue of Uniform and Overlay.
type SamplerSource struct {
	// GetPeer is runtime.Node.GetPeer or any compatible sampler.
	GetPeer func() (string, error)
}

var _ PeerSource[string] = SamplerSource{}

// Draw implements PeerSource.
func (s SamplerSource) Draw() (string, bool) {
	peer, err := s.GetPeer()
	if err != nil {
		return "", false // empty view: wait for the overlay to bootstrap
	}
	return peer, true
}

// NodeEndpoint delivers payloads on one topic through a runtime node's
// transport — the live analogue of the simulators' synchronous call.
type NodeEndpoint struct {
	// Addr is the node's own transport address.
	Addr string
	// Topic is the engine's payload stream.
	Topic string
	// Send is runtime.Node.SendApp or any compatible carrier.
	Send func(ctx context.Context, peer, topic string, payload []byte, wantReply bool) ([]byte, bool, error)
}

var _ Endpoint[string] = (*NodeEndpoint)(nil)

// Self implements Endpoint.
func (e *NodeEndpoint) Self() string { return e.Addr }

// deliverTimeout bounds one delivery.
const deliverTimeout = time.Second

// Deliver implements Endpoint.
func (e *NodeEndpoint) Deliver(peer string, payload []byte, wantReply bool) ([]byte, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deliverTimeout)
	defer cancel()
	return e.Send(ctx, peer, e.Topic, payload, wantReply)
}
