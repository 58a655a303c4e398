package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

// conformanceBackends are the four exchange strategies every behaviour
// below must agree on: the registry's real backends and the fabric.
var conformanceBackends = []string{"tcp", "tcp-pooled", "udp", "fabric"}

// conformancePair is one backend's client and server endpoints plus the
// hook that installs fault rules where that backend reads them.
type conformancePair struct {
	client, server Transport
	setFaults      func([]FaultRule)
	// seen receives the tag of every message a server handler ran on.
	seen chan string
}

// newConformancePair starts a server whose gossip and (unless noApp) app
// handlers echo pulls, decline messages tagged "decline", and report
// every message they see; the client is a plain endpoint of the same
// backend.
func newConformancePair(t *testing.T, backend string, noApp bool) *conformancePair {
	t.Helper()
	// seen has room for more messages than any test sends, so a handler
	// never blocks and Close never waits on one.
	p := &conformancePair{seen: make(chan string, 8)}
	gossip := func(req Request) (Response, bool) {
		p.seen <- req.From
		return Response{From: "echo:" + req.From, Buffer: req.Buffer}, req.From != "decline"
	}
	var factory Factory
	if backend == "fabric" {
		fs := NewFaultSet(1)
		factory = NewFabric(WithFaults(fs)).Factory("node")
		p.setFaults = fs.SetRules
	} else {
		var err error
		if factory, err = NewFactory(backend, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		p.setFaults = Faults().SetRules
	}
	t.Cleanup(func() { p.setFaults(nil) })
	for _, tr := range []*Transport{&p.server, &p.client} {
		var err error
		if *tr, err = factory(gossip); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = (*tr).Close() })
	}
	if !noApp {
		p.server.(AppCarrier).SetAppHandler(func(msg AppMessage) (AppMessage, bool) {
			p.seen <- msg.From
			return AppMessage{From: "echo:" + msg.From, Topic: msg.Topic, Payload: msg.Payload}, msg.From != "decline"
		})
	}
	return p
}

// exchange sends one message tagged tag from client to server, gossip or
// app, and returns the reply's sender and the tag it carried back.
func (p *conformancePair) exchange(ctx context.Context, app, pull bool, tag string) (from, echoed string, ok bool, err error) {
	if app {
		msg := AppMessage{From: tag, Topic: "conformance", Payload: []byte(tag), WantReply: pull}
		reply, ok, err := p.client.(AppCarrier).ExchangeApp(ctx, p.server.Addr(), msg)
		return reply.From, string(reply.Payload), ok, err
	}
	req := Request{From: tag, WantReply: pull, Buffer: []Descriptor{{Addr: tag, Hop: 1}}}
	resp, ok, err := p.client.Exchange(ctx, p.server.Addr(), req)
	if len(resp.Buffer) == 1 {
		echoed = resp.Buffer[0].Addr
	}
	return resp.From, echoed, ok, err
}

// TestBackendConformance runs every exchange behaviour over every
// backend, for gossip and app frames alike. Where a real backend can
// only notice a missing reply by timing out, the fabric reports it at
// once; that is the one permitted difference.
func TestBackendConformance(t *testing.T) {
	cases := []struct {
		name    string
		tag     string
		pull    bool
		noApp   bool // the server has no app handler (app frames only)
		closed  bool // the client endpoint is closed first
		cut     bool // a Cut rule covers client -> server
		wantOK  bool
		wantErr error // the error every backend reports
		noReply bool  // the pull gets no reply: a real backend times out
		seen    bool  // the server's handler runs on the message
	}{
		{name: "pull", tag: "pull", pull: true, wantOK: true, seen: true},
		{name: "push-only", tag: "push", seen: true},
		{name: "handler declines", tag: "decline", pull: true, noReply: true, seen: true},
		{name: "no app handler", tag: "orphan", pull: true, noApp: true, noReply: true},
		{name: "closed endpoint", tag: "closed", pull: true, closed: true, wantErr: ErrClosed},
		{name: "cut rule", tag: "cut", pull: true, cut: true, wantErr: ErrUnreachable},
	}
	for _, backend := range conformanceBackends {
		for _, app := range []bool{false, true} {
			family := "gossip"
			if app {
				family = "app"
			}
			for _, tc := range cases {
				if tc.noApp && !app {
					continue
				}
				t.Run(backend+"/"+family+"/"+tc.name, func(t *testing.T) {
					p := newConformancePair(t, backend, tc.noApp)
					if tc.closed {
						_ = p.client.Close()
					}
					if tc.cut {
						p.setFaults([]FaultRule{{From: p.client.Addr(), To: p.server.Addr(), Cut: true}})
					}
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					if tc.noReply {
						ctx, cancel = context.WithTimeout(context.Background(), 150*time.Millisecond)
					}
					defer cancel()
					from, echoed, ok, err := p.exchange(ctx, app, tc.pull, tc.tag)

					wantErr := tc.wantErr
					if tc.noReply && backend != "fabric" {
						wantErr = ErrUnreachable
					}
					if (wantErr == nil && err != nil) || (wantErr != nil && !errors.Is(err, wantErr)) {
						t.Fatalf("err = %v, want %v", err, wantErr)
					}
					if ok != tc.wantOK {
						t.Fatalf("ok = %v, want %v", ok, tc.wantOK)
					}
					if ok && (from != "echo:"+tc.tag || echoed != tc.tag) {
						t.Fatalf("reply from %q carrying %q, want echo:%s carrying %s", from, echoed, tc.tag, tc.tag)
					}
					if tc.seen {
						select {
						case got := <-p.seen:
							if got != tc.tag {
								t.Fatalf("server saw %q, want %q", got, tc.tag)
							}
						case <-time.After(2 * time.Second):
							t.Fatal("server handler never saw the message")
						}
					}
					if !tc.seen {
						select {
						case got := <-p.seen:
							t.Fatalf("server handler ran on %q", got)
						default:
						}
					}
					if tc.noApp && backend != "fabric" {
						waitDropped(t, p.server.(StatsReporter))
					}
				})
			}
		}
	}
}

// waitDropped polls until the endpoint has counted a dropped message.
func waitDropped(t *testing.T, sr StatsReporter) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for sr.TransportStats().DatagramsDropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dropped message never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBackendWireCounters pins each real backend's connection model by
// its counters after a run of pulls: tcp dials for every exchange and
// never reuses, tcp-pooled dials once and reuses the connection, udp opens
// a socket per exchange.
func TestBackendWireCounters(t *testing.T) {
	const pulls = 5
	want := map[string]Stats{
		"tcp":        {Dials: pulls, Reuses: 0},
		"tcp-pooled": {Dials: 1, Reuses: pulls - 1},
		"udp":        {Dials: pulls, Reuses: 0},
	}
	for _, backend := range conformanceBackends[:3] {
		t.Run(backend, func(t *testing.T) {
			p := newConformancePair(t, backend, false)
			for i := 0; i < pulls; i++ {
				if _, _, ok, err := p.exchange(context.Background(), i%2 == 1, true, "pull"); err != nil || !ok {
					t.Fatalf("pull %d: %v ok=%v", i, err, ok)
				}
				<-p.seen
			}
			st := p.client.(StatsReporter).TransportStats()
			if st.Dials != want[backend].Dials || st.Reuses != want[backend].Reuses {
				t.Fatalf("dials=%d reuses=%d, want dials=%d reuses=%d",
					st.Dials, st.Reuses, want[backend].Dials, want[backend].Reuses)
			}
			if st.FramesOut != pulls || st.FramesIn != pulls {
				t.Fatalf("frames out=%d in=%d, want %d each", st.FramesOut, st.FramesIn, pulls)
			}
		})
	}
}
