package runtime

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"peersampling/internal/core"
	"peersampling/internal/transport"
)

// exchangeTimeout bounds every exchange of the fault tests, gossip and
// app alike: ample on loopback, short enough to wait out.
const exchangeTimeout = 300 * time.Millisecond

// faultPair is a client and a server node of one backend sharing a fault
// set, each echoing app pulls and counting the app messages it serves.
type faultPair struct {
	client, server *Node
	faults         *transport.FaultSet
	lastErr        error // the client's last gossip failure (Tick is synchronous)
	appServed      atomic.Int32
}

func newFaultPair(t *testing.T, backend string) *faultPair {
	t.Helper()
	var factory transport.Factory
	if backend == "fabric" {
		factory = transport.NewFabric().Factory("node")
	} else {
		var err error
		if factory, err = transport.NewFactory(backend, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	p := &faultPair{faults: transport.NewFaultSet(1)}
	cfg := memConfig(core.Newscast)
	cfg.Faults = p.faults
	cfg.ExchangeTimeout = exchangeTimeout
	cfg.OnError = func(err error) { p.lastErr = err }
	for _, n := range []**Node{&p.client, &p.server} {
		node, err := New(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		node.SetAppHandler(func(msg transport.AppMessage) (transport.AppMessage, bool) {
			p.appServed.Add(1)
			return transport.AppMessage{From: "echo", Topic: msg.Topic, Payload: msg.Payload}, true
		})
		*n = node
	}
	if err := p.client.Init([]string{p.server.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := p.server.Init([]string{p.client.Addr()}); err != nil {
		t.Fatal(err)
	}
	return p
}

// exchange runs one exchange from one node of the pair to the other:
// a Tick for gossip, a pulling SendApp for app frames.
func (p *faultPair) exchange(from, to *Node, app bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), exchangeTimeout)
	defer cancel()
	if app {
		_, replied, err := from.SendApp(ctx, to.Addr(), "faults", []byte("ping"), true)
		if err == nil && !replied {
			err = errors.New("pull got no reply")
		}
		return err
	}
	p.lastErr = nil
	from.Tick()
	return p.lastErr
}

// served counts the messages of one family the server has handled.
func (p *faultPair) served(app bool) int {
	if app {
		return int(p.appServed.Load())
	}
	_, _, _, handled := p.server.Stats()
	return int(handled)
}

// TestLinkFaults applies each fault kind through Config.Faults on every
// backend, to gossip and app exchanges alike. The node consults its set
// before the transport runs, so every backend fails the same way and a
// faulted message never reaches the peer.
func TestLinkFaults(t *testing.T) {
	for _, backend := range []string{"tcp", "tcp-pooled", "udp", "fabric"} {
		for _, app := range []bool{false, true} {
			family := "gossip"
			if app {
				family = "app"
			}
			prefix := backend + "/" + family + "/"
			t.Run(prefix+"cut_rule", func(t *testing.T) {
				p := newFaultPair(t, backend)
				p.faults.SetRules([]transport.FaultRule{{From: p.client.Addr(), To: p.server.Addr(), Cut: true}})
				if err := p.exchange(p.client, p.server, app); !errors.Is(err, transport.ErrUnreachable) {
					t.Fatalf("cut exchange: err = %v, want ErrUnreachable", err)
				}
				if got := p.served(app); got != 0 {
					t.Fatalf("server handled %d messages across a cut link", got)
				}
				p.faults.SetRules(nil)
				if err := p.exchange(p.client, p.server, app); err != nil {
					t.Fatalf("healed exchange: %v", err)
				}
			})
			t.Run(prefix+"reverse_link", func(t *testing.T) {
				p := newFaultPair(t, backend)
				p.faults.SetRules([]transport.FaultRule{{From: p.client.Addr(), To: p.server.Addr(), Cut: true}})
				// The rule is directed: while it holds, the reverse link
				// still works and the cut one still fails.
				if err := p.exchange(p.server, p.client, app); err != nil {
					t.Fatalf("reverse exchange: %v", err)
				}
				if err := p.exchange(p.client, p.server, app); !errors.Is(err, transport.ErrUnreachable) {
					t.Fatalf("cut exchange after reverse: err = %v, want ErrUnreachable", err)
				}
				p.faults.SetRules(nil)
				if err := p.exchange(p.client, p.server, app); err != nil {
					t.Fatalf("healed exchange: %v", err)
				}
			})
			t.Run(prefix+"partition", func(t *testing.T) {
				p := newFaultPair(t, backend)
				// A partition is a cut rule on each direction of a link.
				p.faults.SetRules([]transport.FaultRule{
					{From: p.client.Addr(), To: p.server.Addr(), Cut: true},
					{From: p.server.Addr(), To: p.client.Addr(), Cut: true},
				})
				for _, dir := range [][2]*Node{{p.client, p.server}, {p.server, p.client}} {
					if err := p.exchange(dir[0], dir[1], app); !errors.Is(err, transport.ErrUnreachable) {
						t.Fatalf("partitioned exchange %s->%s: err = %v, want ErrUnreachable", dir[0].Addr(), dir[1].Addr(), err)
					}
				}
				p.faults.SetRules(nil)
				for _, dir := range [][2]*Node{{p.client, p.server}, {p.server, p.client}} {
					if err := p.exchange(dir[0], dir[1], app); err != nil {
						t.Fatalf("healed exchange %s->%s: %v", dir[0].Addr(), dir[1].Addr(), err)
					}
				}
			})
			t.Run(prefix+"loss", func(t *testing.T) {
				p := newFaultPair(t, backend)
				p.faults.SetRules([]transport.FaultRule{{From: "*", To: "*", Loss: 1}})
				if err := p.exchange(p.client, p.server, app); !errors.Is(err, transport.ErrDropped) {
					t.Fatalf("lossy exchange: err = %v, want ErrDropped", err)
				}
				if got := p.served(app); got != 0 {
					t.Fatalf("server handled %d dropped messages", got)
				}
			})
			t.Run(prefix+"latency", func(t *testing.T) {
				p := newFaultPair(t, backend)
				const delay = 40 * time.Millisecond
				p.faults.SetRules([]transport.FaultRule{{From: p.client.Addr(), To: p.server.Addr(), Latency: delay}})
				start := time.Now()
				if err := p.exchange(p.client, p.server, app); err != nil {
					t.Fatalf("delayed exchange: %v", err)
				}
				if took := time.Since(start); took < delay {
					t.Fatalf("exchange took %v, want >= %v of injected latency", took, delay)
				}
				if !app {
					// The delay is part of the measured round trip.
					if lat := p.client.ExchangeLatency(); lat.Count != 1 || lat.Quantile(1) < delay.Seconds() {
						t.Fatalf("latency histogram = %+v, want one round trip >= %v", lat, delay)
					}
				}
				// A delay past the exchange timeout ends in the timeout.
				p.faults.SetRules([]transport.FaultRule{{From: p.client.Addr(), To: p.server.Addr(), Latency: time.Minute}})
				if err := p.exchange(p.client, p.server, app); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("over-long delay: err = %v, want deadline exceeded", err)
				}
			})
		}
	}
}
