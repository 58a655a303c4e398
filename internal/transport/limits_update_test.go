package transport

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestConnGateResize checks the gate arithmetic around a live resize:
// lowering the cap below current occupancy refuses new arrivals without
// disturbing slots already held, and raising it re-admits.
func TestConnGateResize(t *testing.T) {
	var rejects atomic.Uint64
	g := newConnGate(2, &rejects)
	if !g.tryAcquire() || !g.tryAcquire() {
		t.Fatal("gate refused below cap")
	}
	if g.tryAcquire() {
		t.Fatal("gate admitted past cap")
	}
	g.setMax(1) // below current occupancy of 2
	if g.tryAcquire() {
		t.Fatal("gate admitted past lowered cap")
	}
	g.release() // occupancy 1, still at the lowered cap
	if g.tryAcquire() {
		t.Fatal("gate admitted at lowered cap")
	}
	g.setMax(3)
	if !g.tryAcquire() || !g.tryAcquire() {
		t.Fatal("gate refused after raise")
	}
	g.setMax(-1) // unlimited
	for i := 0; i < 8; i++ {
		if !g.tryAcquire() {
			t.Fatal("unlimited gate refused")
		}
	}
	if rejects.Load() != 3 {
		t.Fatalf("rejects = %d, want 3", rejects.Load())
	}
}

// TestSetLimitsRejectsInvalid checks SetLimits validates exactly like
// construction on every backend, leaving the running limits untouched.
func TestSetLimitsRejectsInvalid(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func() (interface {
			LimitsUpdater
			Transport
		}, error)
	}{
		{"tcp", func() (interface {
			LimitsUpdater
			Transport
		}, error) {
			return ListenTCP("127.0.0.1:0", echoLimits, Limits{})
		}},
		{"tcp-pooled", func() (interface {
			LimitsUpdater
			Transport
		}, error) {
			return ListenPooledTCP("127.0.0.1:0", echoLimits, Limits{})
		}},
		{"udp", func() (interface {
			LimitsUpdater
			Transport
		}, error) {
			return ListenUDP("127.0.0.1:0", echoLimits, Limits{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if err := tr.SetLimits(Limits{KeepAlive: -time.Second}); err == nil {
				t.Error("negative keep-alive accepted")
			}
			if err := tr.SetLimits(Limits{KeepAlive: time.Second, PushOnlyKeepAlive: 2 * time.Second}); err == nil {
				t.Error("push-only budget above keep-alive accepted")
			}
			if err := tr.SetLimits(Limits{MaxConns: 8, KeepAlive: time.Second}); err != nil {
				t.Errorf("valid limits rejected: %v", err)
			}
		})
	}
}

// TestTCPSetLimitsResizesCap lowers MaxConns on a live listener and
// checks new connections beyond the lowered cap are refused while an
// exchange through an admitted slot still works.
func TestTCPSetLimitsResizesCap(t *testing.T) {
	server, err := ListenTCP("127.0.0.1:0", echoLimits, Limits{MaxConns: 16, KeepAlive: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	if err := server.SetLimits(Limits{MaxConns: 1, KeepAlive: time.Second}); err != nil {
		t.Fatal(err)
	}
	// Occupy the single slot with a held-open connection.
	holder, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	// A second connection must be closed on arrival and counted.
	over, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	waitForRejects(t, &server.stats, 1)

	// Raise the cap again: an exchange now succeeds.
	if err := server.SetLimits(Limits{MaxConns: 8, KeepAlive: time.Second}); err != nil {
		t.Fatal(err)
	}
	client, err := ListenTCP("127.0.0.1:0", echoLimits, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	resp, ok, err := client.Exchange(context.Background(), server.Addr(),
		Request{From: client.Addr(), WantReply: true})
	if err != nil || !ok {
		t.Fatalf("exchange after cap raise: ok=%v err=%v", ok, err)
	}
	if resp.From != "server" {
		t.Fatalf("resp.From = %q", resp.From)
	}
}

// TestSetLimitsShrinksKeepAliveOnLiveConn checks the budget schedule is
// re-read per frame: a connection opened under a generous keep-alive is
// evicted by the shrunken budget applied after its first frame.
func TestSetLimitsShrinksKeepAliveOnLiveConn(t *testing.T) {
	server, err := ListenPooledTCP("127.0.0.1:0", echoLimits, Limits{KeepAlive: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Earn the full keep-alive with one pull exchange on the raw conn.
	frame := streamFrame(t, Request{From: "raw", WantReply: true})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrameInto(conn, nil); err != nil {
		t.Fatal(err)
	}

	// Shrink the budget under the live connection; its next deadline (armed
	// when it waits for the frame after this one) must use the new value.
	if err := server.SetLimits(Limits{KeepAlive: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrameInto(conn, nil); err != nil {
		t.Fatal(err)
	}
	// Now sit silent: under the old 30s budget this read would park for the
	// whole test timeout; under the shrunken one the server evicts us.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrameInto(conn, nil); err == nil {
		t.Fatal("server kept the connection past the shrunken keep-alive")
	}
	if evictions := server.stats.snapshot().KeepAliveEvictions; evictions == 0 {
		t.Error("eviction not counted")
	}
}

// TestUDPSetLimitsResizesHandlerCap checks the datagram backend applies
// a new MaxConns to handler dispatch.
func TestUDPSetLimitsResizesHandlerCap(t *testing.T) {
	release := make(chan struct{})
	slow := func(req Request) (Response, bool) {
		<-release
		return Response{From: "server"}, req.WantReply
	}
	server, err := ListenUDP("127.0.0.1:0", slow, Limits{MaxConns: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	defer close(release)

	if err := server.SetLimits(Limits{MaxConns: 1}); err != nil {
		t.Fatal(err)
	}
	frame, err := AppendRequest(nil, Request{From: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// First datagram occupies the single slot; follow-ups are rejected.
	for i := 0; i < 4; i++ {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	waitForRejects(t, &server.stats, 1)
}

// waitForRejects polls the stats until at least want accept rejects are
// counted or the deadline passes.
func waitForRejects(t *testing.T, stats *counters, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if stats.snapshot().AcceptRejects >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("accept rejects = %d, want >= %d", stats.snapshot().AcceptRejects, want)
}
