package app

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"peersampling/internal/sim"
	"peersampling/internal/transport"
)

// echoEngine replies to every message with its payload reversed, unless
// silent, and records what reached OnMessage.
type echoEngine struct {
	silent bool
	got    []transport.AppMessage
}

func (e *echoEngine) Topic() string                             { return "echo" }
func (e *echoEngine) Tick(PeerSource[string], Endpoint[string]) {}
func (e *echoEngine) Snapshot() Snapshot                        { return Snapshot{} }

func (e *echoEngine) OnMessage(from string, payload []byte) ([]byte, bool) {
	e.got = append(e.got, transport.AppMessage{From: from, Payload: slices.Clone(payload)})
	if e.silent {
		return nil, false
	}
	reply := slices.Clone(payload)
	slices.Reverse(reply)
	return reply, true
}

func TestHandler(t *testing.T) {
	e := &echoEngine{}
	h := Handler("self:1", e)

	if _, ok := h(transport.AppMessage{From: "peer:2", Topic: "other", Payload: []byte("x")}); ok {
		t.Error("a message on another topic got a reply")
	}
	if len(e.got) != 0 {
		t.Errorf("a message on another topic reached the engine: %v", e.got)
	}

	reply, ok := h(transport.AppMessage{From: "peer:2", Topic: "echo", Payload: []byte("abc")})
	if !ok {
		t.Fatal("no reply on the engine's topic")
	}
	if reply.From != "self:1" || reply.Topic != "echo" || string(reply.Payload) != "cba" {
		t.Errorf("reply = %+v, want from self:1 on echo with cba", reply)
	}
	if len(e.got) != 1 || e.got[0].From != "peer:2" || string(e.got[0].Payload) != "abc" {
		t.Errorf("engine saw %v", e.got)
	}

	e.silent = true
	if _, ok := h(transport.AppMessage{From: "peer:2", Topic: "echo", Payload: []byte("abc")}); ok {
		t.Error("ok=true although the engine did not reply")
	}
}

func TestSamplerSourceDraw(t *testing.T) {
	empty := SamplerSource{GetPeer: func() (string, error) { return "", errors.New("empty view") }}
	if p, ok := empty.Draw(); ok || p != "" {
		t.Errorf("Draw over a failing GetPeer = %q,%v, want \"\",false", p, ok)
	}
	full := SamplerSource{GetPeer: func() (string, error) { return "peer:2", nil }}
	if p, ok := full.Draw(); !ok || p != "peer:2" {
		t.Errorf("Draw = %q,%v, want peer:2,true", p, ok)
	}
}

func TestUniformDraw(t *testing.T) {
	const n = 5
	u := NewUniform(n, 1, 2)
	for id := sim.NodeID(0); id < n; id++ {
		src := u.For(id)
		for range 200 {
			p, ok := src.Draw()
			if !ok || p == id || p < 0 || p >= n {
				t.Fatalf("node %d drew %d,%v", id, p, ok)
			}
		}
	}
	for _, size := range []int{0, 1} {
		if p, ok := NewUniform(size, 1, 2).For(0).Draw(); ok {
			t.Errorf("n=%d: drew %d", size, p)
		}
	}
}

func TestNodeEndpointDeliver(t *testing.T) {
	var deadline time.Time
	var sent []any
	ep := &NodeEndpoint{Addr: "self:1", Topic: "echo",
		Send: func(ctx context.Context, peer, topic string, payload []byte, wantReply bool) ([]byte, bool, error) {
			deadline, _ = ctx.Deadline()
			sent = []any{peer, topic, string(payload), wantReply}
			return []byte("re"), true, nil
		}}
	if ep.Self() != "self:1" {
		t.Errorf("Self = %q", ep.Self())
	}
	start := time.Now()
	reply, replied, err := ep.Deliver("peer:2", []byte("hi"), true)
	if err != nil || !replied || string(reply) != "re" {
		t.Errorf("Deliver = %q,%v,%v", reply, replied, err)
	}
	if !slices.Equal(sent, []any{"peer:2", "echo", "hi", true}) {
		t.Errorf("Send got %v", sent)
	}
	if left := deadline.Sub(start); left < 900*time.Millisecond || left > time.Second+100*time.Millisecond {
		t.Errorf("delivery deadline %v after the call, want about 1s", left)
	}
}
