package workload

import (
	"context"
	"testing"
	"time"

	"peersampling/aggregate"
	"peersampling/broadcast"
	"peersampling/internal/config"
	"peersampling/internal/core"
	"peersampling/internal/runtime"
	"peersampling/internal/transport"
)

func TestNewBuildsEngines(t *testing.T) {
	e, err := New(config.WorkloadSection{
		Kind: config.WorkloadBroadcast, Fanout: 2, Mode: "infect-forever",
	})
	if err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if e.Topic() != broadcast.Topic {
		t.Fatalf("broadcast engine topic = %q", e.Topic())
	}

	e, err = New(config.WorkloadSection{Kind: config.WorkloadAggregate, Initial: 7.5})
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	if e.Topic() != aggregate.Topic {
		t.Fatalf("aggregate engine topic = %q", e.Topic())
	}
	if got := e.Snapshot().Value; got != 7.5 {
		t.Fatalf("aggregate initial value = %v, want 7.5", got)
	}
}

func TestNewRejectsBadSections(t *testing.T) {
	bad := []config.WorkloadSection{
		{},                  // no kind
		{Kind: "mapreduce"}, // unknown kind
		{Kind: config.WorkloadBroadcast, Fanout: 2, Mode: "sideways"},       // bad mode
		{Kind: config.WorkloadBroadcast, Fanout: 0, Mode: "infect-forever"}, // engine rejects fanout
	}
	for _, ws := range bad {
		if _, err := New(ws); err == nil {
			t.Errorf("New(%+v) accepted, want error", ws)
		}
	}
}

// nopTransport has no app-payload capability, so Attach must refuse it.
type nopTransport struct{}

func (nopTransport) Addr() string { return "stub:0" }
func (nopTransport) Exchange(context.Context, string, transport.Request) (transport.Response, bool, error) {
	return transport.Response{}, false, nil
}
func (nopTransport) Close() error { return nil }

func TestAttachRejectsNonAppTransport(t *testing.T) {
	node, err := runtime.New(runtime.Config{Protocol: core.Newscast, ViewSize: 4},
		func(transport.Handler) (transport.Transport, error) { return nopTransport{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	e, err := New(config.WorkloadSection{Kind: config.WorkloadAggregate})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(node, e, time.Second); err == nil {
		t.Fatal("Attach over an app-less transport succeeded, want error")
	}
}

func TestNodeSourceAppSnapshot(t *testing.T) {
	e, err := New(config.WorkloadSection{Kind: config.WorkloadAggregate, Initial: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := &NodeSource{engine: e}
	snap, ok := s.AppSnapshot()
	if !ok || snap.Value != 3 {
		t.Fatalf("AppSnapshot = %+v, %v; want value 3, true", snap, ok)
	}
	empty := &NodeSource{}
	if _, ok := empty.AppSnapshot(); ok {
		t.Fatal("engine-less NodeSource reported an app snapshot")
	}
}

// TestAttachSpreadsOverTCP runs the full live path in miniature: two TCP
// nodes, a broadcast engine attached to each, one engine seeded
// directly; the rumor must cross the process's real sockets and infect
// the other engine via its node's own getPeer.
func TestAttachSpreadsOverTCP(t *testing.T) {
	const period = 5 * time.Millisecond
	type member struct {
		node *runtime.Node
		att  *Attachment
		src  *NodeSource
	}
	newMember := func() member {
		factory, err := transport.NewFactory("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node, err := runtime.New(runtime.Config{
			Protocol: core.Newscast, ViewSize: 4, Period: period,
		}, factory)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(config.WorkloadSection{
			Kind: config.WorkloadBroadcast, Fanout: 2, Mode: "infect-forever",
		})
		if err != nil {
			t.Fatal(err)
		}
		att, err := Attach(node, e, period)
		if err != nil {
			t.Fatal(err)
		}
		return member{node: node, att: att, src: NewNodeSource(node, e)}
	}

	a, b := newMember(), newMember()
	defer func() {
		for _, m := range []member{a, b} {
			m.att.Close()
			m.node.Close()
		}
	}()
	if err := a.node.Init([]string{b.node.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := b.node.Init([]string{a.node.Addr()}); err != nil {
		t.Fatal(err)
	}
	for _, m := range []member{a, b} {
		if err := m.node.Start(); err != nil {
			t.Fatal(err)
		}
		m.att.Start()
	}

	// Seed a's engine the way a remote seeder would: one payload on the
	// broadcast topic.
	a.att.Handle(transport.AppMessage{
		From: "seeder", Topic: broadcast.Topic, Payload: []byte("the-rumor"),
	})

	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, ok := b.src.AppSnapshot()
		if ok && snap.Infected >= 1 {
			if snap.Received == 0 {
				t.Fatal("engine infected without receiving a payload")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rumor never reached the second node; snapshot %+v", snap)
		}
		time.Sleep(period)
	}
}
