package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// echoPooled starts a pooled server echoing pull requests.
func echoPooled(t *testing.T, cfg PoolConfig) *TCP {
	t.Helper()
	server, err := ListenPooledTCP("127.0.0.1:0", func(req Request) (Response, bool) {
		if !req.WantReply {
			return Response{}, false
		}
		return Response{From: "server", Buffer: req.Buffer}, true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })
	return server
}

func newPooledClient(t *testing.T, cfg PoolConfig) *TCP {
	t.Helper()
	client, err := ListenPooledTCP("127.0.0.1:0", func(Request) (Response, bool) { return Response{}, false }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return client
}

func TestPooledTCPRejectsInvalidIdleTimeout(t *testing.T) {
	h := func(Request) (Response, bool) { return Response{}, false }
	if _, err := ListenPooledTCP("127.0.0.1:0", h, PoolConfig{IdleTimeout: 5 * time.Minute}); err == nil {
		t.Error("idle timeout above the default accepted (would defeat the passive keep-alive guarantee)")
	}
	if _, err := ListenPooledTCP("127.0.0.1:0", h, PoolConfig{IdleTimeout: time.Nanosecond}); err == nil {
		t.Error("sub-millisecond idle timeout accepted")
	}
}

func TestPooledTCPRoundTrip(t *testing.T) {
	server := echoPooled(t, PoolConfig{})
	client := newPooledClient(t, PoolConfig{})
	req := Request{From: client.Addr(), WantReply: true, Buffer: []Descriptor{{Addr: "x", Hop: 2}}}
	resp, ok, err := client.Exchange(context.Background(), server.Addr(), req)
	if err != nil || !ok {
		t.Fatalf("exchange: %v ok=%v", err, ok)
	}
	if resp.From != "server" || len(resp.Buffer) != 1 || resp.Buffer[0] != req.Buffer[0] {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestPooledTCPReusesConnection(t *testing.T) {
	server := echoPooled(t, PoolConfig{})
	client := newPooledClient(t, PoolConfig{})
	req := Request{From: client.Addr(), WantReply: true, Buffer: []Descriptor{{Addr: "x", Hop: 1}}}
	for i := 0; i < 5; i++ {
		if _, ok, err := client.Exchange(context.Background(), server.Addr(), req); err != nil || !ok {
			t.Fatalf("exchange %d: %v ok=%v", i, err, ok)
		}
	}
	stats := client.TransportStats()
	if stats.Dials != 1 {
		t.Errorf("dials = %d want 1 (second exchange must not re-dial)", stats.Dials)
	}
	if stats.Reuses != 4 {
		t.Errorf("reuses = %d want 4", stats.Reuses)
	}
	if stats.BytesOut == 0 || stats.BytesIn == 0 {
		t.Errorf("byte counters not advancing: %+v", stats)
	}
}

func TestPooledTCPPushOnly(t *testing.T) {
	received := make(chan Request, 2)
	server, err := ListenPooledTCP("127.0.0.1:0", func(req Request) (Response, bool) {
		received <- req
		return Response{}, false
	}, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client := newPooledClient(t, PoolConfig{})

	// Two pushes must travel over one pooled connection.
	for i := 0; i < 2; i++ {
		_, ok, err := client.Exchange(context.Background(), server.Addr(), Request{From: client.Addr()})
		if err != nil || ok {
			t.Fatalf("push %d: %v ok=%v", i, err, ok)
		}
		select {
		case req := <-received:
			if req.From != client.Addr() {
				t.Errorf("server saw From=%q", req.From)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("server never received the push")
		}
	}
	if stats := client.TransportStats(); stats.Dials != 1 || stats.Reuses != 1 {
		t.Errorf("stats = %+v want one dial, one reuse", stats)
	}
}

func TestPooledTCPIdleEviction(t *testing.T) {
	cfg := PoolConfig{IdleTimeout: 40 * time.Millisecond}
	server := echoPooled(t, cfg)
	client := newPooledClient(t, cfg)
	req := Request{From: client.Addr(), WantReply: true}
	if _, _, err := client.Exchange(context.Background(), server.Addr(), req); err != nil {
		t.Fatal(err)
	}
	// Wait for the sweeper (period IdleTimeout/4) to evict the idle conn.
	deadline := time.Now().Add(2 * time.Second)
	for {
		client.mu.Lock()
		idle := len(client.idle[server.Addr()])
		client.mu.Unlock()
		if idle == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle connection never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, _, err := client.Exchange(context.Background(), server.Addr(), req); err != nil {
		t.Fatal(err)
	}
	if stats := client.TransportStats(); stats.Dials != 2 {
		t.Errorf("dials = %d want 2 (fresh dial after eviction)", stats.Dials)
	}
}

func TestPooledTCPRetriesStaleConnection(t *testing.T) {
	// Give only the client a long idle timeout; restart-like staleness is
	// simulated by closing the server between exchanges.
	server := echoPooled(t, PoolConfig{})
	client := newPooledClient(t, PoolConfig{})
	req := Request{From: client.Addr(), WantReply: true}
	if _, _, err := client.Exchange(context.Background(), server.Addr(), req); err != nil {
		t.Fatal(err)
	}
	addr := server.Addr()
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	// Bring a new server up on the same address.
	server2, err := ListenPooledTCP(addr, func(req Request) (Response, bool) {
		return Response{From: "reborn", Buffer: req.Buffer}, req.WantReply
	}, PoolConfig{})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer server2.Close()
	// The pooled conn is now stale; the exchange must retry on a fresh dial.
	resp, ok, err := client.Exchange(context.Background(), addr, req)
	if err != nil || !ok {
		t.Fatalf("exchange via stale conn: %v ok=%v", err, ok)
	}
	if resp.From != "reborn" {
		t.Errorf("resp.From = %q", resp.From)
	}
	if stats := client.TransportStats(); stats.Dials != 2 {
		t.Errorf("dials = %d want 2", stats.Dials)
	}
}

func TestPooledTCPConcurrentExchanges(t *testing.T) {
	server := echoPooled(t, PoolConfig{})
	client := newPooledClient(t, PoolConfig{})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{From: client.Addr(), WantReply: true,
				Buffer: []Descriptor{{Addr: fmt.Sprintf("peer-%d", i), Hop: int32(i)}}}
			resp, ok, err := client.Exchange(context.Background(), server.Addr(), req)
			if err != nil || !ok {
				errs <- fmt.Errorf("exchange %d: %v ok=%v", i, err, ok)
				return
			}
			if len(resp.Buffer) != 1 || resp.Buffer[0] != req.Buffer[0] {
				errs <- fmt.Errorf("exchange %d got foreign response %+v", i, resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// At most DefaultMaxIdlePerPeer conns are retained once the burst drains.
	client.mu.Lock()
	idle := len(client.idle[server.Addr()])
	client.mu.Unlock()
	if idle > DefaultMaxIdlePerPeer {
		t.Errorf("idle pool holds %d conns, cap is %d", idle, DefaultMaxIdlePerPeer)
	}
}

// TestPooledTCPMisbehavedHandlerKeepsStreamInSync guards the persistent
// stream against handlers that return ok for push-only requests: the
// passive side must not write an unrequested response frame, which would
// be misread as the reply to the peer's next exchange.
func TestPooledTCPMisbehavedHandlerKeepsStreamInSync(t *testing.T) {
	server, err := ListenPooledTCP("127.0.0.1:0", func(req Request) (Response, bool) {
		// Always claim a response, even for WantReply=false pushes.
		return Response{From: "server", Buffer: req.Buffer}, true
	}, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client := newPooledClient(t, PoolConfig{})

	// A push followed by a pushpull over the same pooled connection.
	if _, ok, err := client.Exchange(context.Background(), server.Addr(),
		Request{From: client.Addr()}); err != nil || ok {
		t.Fatalf("push: %v ok=%v", err, ok)
	}
	want := Descriptor{Addr: "marker", Hop: 7}
	resp, ok, err := client.Exchange(context.Background(), server.Addr(),
		Request{From: client.Addr(), WantReply: true, Buffer: []Descriptor{want}})
	if err != nil || !ok {
		t.Fatalf("pushpull: %v ok=%v", err, ok)
	}
	if len(resp.Buffer) != 1 || resp.Buffer[0] != want {
		t.Fatalf("stream desynced: got stale response %+v", resp)
	}
}

// TestPooledTCPPushNeverReusesAgedConn guards push-only exchanges against
// silent loss: a connection idle past the timeout may have been closed by
// the peer's (longer) passive deadline, and a push written into it would
// vanish into the kernel buffer without an error. borrow must discard it
// and dial fresh even before the periodic sweep notices.
func TestPooledTCPPushNeverReusesAgedConn(t *testing.T) {
	received := make(chan Request, 2)
	server, err := ListenPooledTCP("127.0.0.1:0", func(req Request) (Response, bool) {
		received <- req
		return Response{}, false
	}, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	cfg := PoolConfig{IdleTimeout: 50 * time.Millisecond}
	client := newPooledClient(t, cfg)
	push := Request{From: client.Addr()}
	if _, _, err := client.Exchange(context.Background(), server.Addr(), push); err != nil {
		t.Fatal(err)
	}
	<-received
	// Age the pooled connection past the client's idle timeout, then force
	// it back into the pool so only the borrow-time check can reject it.
	client.mu.Lock()
	for _, pc := range client.idle[server.Addr()] {
		pc.idleFrom = pc.idleFrom.Add(-2 * cfg.IdleTimeout)
	}
	client.mu.Unlock()
	if _, _, err := client.Exchange(context.Background(), server.Addr(), push); err != nil {
		t.Fatal(err)
	}
	select {
	case <-received:
	case <-time.After(2 * time.Second):
		t.Fatal("second push lost")
	}
	if stats := client.TransportStats(); stats.Dials != 2 || stats.Reuses != 0 {
		t.Errorf("stats = %+v want 2 dials, 0 reuses (aged conn must not carry a push)", stats)
	}
}

// TestPooledClientAgainstPlainTCPServer covers mixed-backend clusters:
// the plain TCP passive side must serve a persistent client's frames in a
// loop, so pooled pushes are neither lost in one-shot connections nor
// forced to re-dial.
func TestPooledClientAgainstPlainTCPServer(t *testing.T) {
	received := make(chan Request, 3)
	server, err := ListenTCP("127.0.0.1:0", func(req Request) (Response, bool) {
		received <- req
		return Response{From: "plain", Buffer: req.Buffer}, req.WantReply
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client := newPooledClient(t, PoolConfig{})

	// Pushes and a pushpull interleaved over one pooled connection.
	for i := 0; i < 2; i++ {
		if _, ok, err := client.Exchange(context.Background(), server.Addr(),
			Request{From: client.Addr()}); err != nil || ok {
			t.Fatalf("push %d: %v ok=%v", i, err, ok)
		}
		select {
		case <-received:
		case <-time.After(2 * time.Second):
			t.Fatalf("push %d lost against plain TCP server", i)
		}
	}
	resp, ok, err := client.Exchange(context.Background(), server.Addr(),
		Request{From: client.Addr(), WantReply: true})
	if err != nil || !ok || resp.From != "plain" {
		t.Fatalf("pushpull: %v ok=%v resp=%+v", err, ok, resp)
	}
	if stats := client.TransportStats(); stats.Dials != 1 || stats.Reuses != 2 {
		t.Errorf("stats = %+v want 1 dial, 2 reuses", stats)
	}
}

func TestPooledTCPClose(t *testing.T) {
	server := echoPooled(t, PoolConfig{})
	client := newPooledClient(t, PoolConfig{})
	if _, _, err := client.Exchange(context.Background(), server.Addr(),
		Request{From: client.Addr(), WantReply: true}); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil { // idempotent
		t.Errorf("second close: %v", err)
	}
	_, _, err := client.Exchange(context.Background(), server.Addr(), Request{From: "x"})
	if !errors.Is(err, ErrClosed) {
		t.Errorf("exchange after close: %v want ErrClosed", err)
	}
}
