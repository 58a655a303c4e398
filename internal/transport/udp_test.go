package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

func echoUDP(t *testing.T) *UDP {
	t.Helper()
	server, err := ListenUDP("127.0.0.1:0", func(req Request) (Response, bool) {
		if !req.WantReply {
			return Response{}, false
		}
		return Response{From: "server", Buffer: req.Buffer}, true
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })
	return server
}

func newUDPClient(t *testing.T) *UDP {
	t.Helper()
	client, err := ListenUDP("127.0.0.1:0", func(Request) (Response, bool) { return Response{}, false }, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return client
}

func TestUDPPushPullRoundTrip(t *testing.T) {
	server := echoUDP(t)
	client := newUDPClient(t)
	req := Request{From: client.Addr(), WantReply: true, Buffer: []Descriptor{{Addr: "x", Hop: 2}}}
	resp, ok, err := client.Exchange(context.Background(), server.Addr(), req)
	if err != nil || !ok {
		t.Fatalf("exchange: %v ok=%v", err, ok)
	}
	if resp.From != "server" || len(resp.Buffer) != 1 || resp.Buffer[0] != req.Buffer[0] {
		t.Fatalf("resp = %+v", resp)
	}
	stats := client.TransportStats()
	if stats.FramesOut != 1 || stats.FramesIn != 1 || stats.BytesOut == 0 || stats.BytesIn == 0 {
		t.Errorf("client stats = %+v", stats)
	}
}

func TestUDPPushOnly(t *testing.T) {
	received := make(chan Request, 1)
	server, err := ListenUDP("127.0.0.1:0", func(req Request) (Response, bool) {
		received <- req
		return Response{}, false
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client := newUDPClient(t)

	_, ok, err := client.Exchange(context.Background(), server.Addr(), Request{
		From: client.Addr(), Buffer: []Descriptor{{Addr: "y", Hop: 1}}})
	if err != nil || ok {
		t.Fatalf("push exchange: %v ok=%v", err, ok)
	}
	select {
	case req := <-received:
		if req.From != client.Addr() || len(req.Buffer) != 1 {
			t.Errorf("server saw %+v", req)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server never received the push")
	}
}

func TestUDPOversizedViewRejected(t *testing.T) {
	server := echoUDP(t)
	client := newUDPClient(t)
	// A view whose encoding exceeds one datagram must fail fast on the
	// sender, not silently truncate on the wire.
	huge := make([]Descriptor, 0, MaxDescriptors)
	addr := strings.Repeat("a", MaxAddrLen-6) + ":12345"
	for len(huge) < MaxDescriptors {
		huge = append(huge, Descriptor{Addr: addr, Hop: 1})
	}
	_, _, err := client.Exchange(context.Background(), server.Addr(),
		Request{From: client.Addr(), WantReply: true, Buffer: huge})
	if !errors.Is(err, ErrOversized) {
		t.Fatalf("err = %v want ErrOversized", err)
	}
	if stats := client.TransportStats(); stats.FramesOut != 0 {
		t.Errorf("oversized frame was sent anyway: %+v", stats)
	}
}

func TestUDPServerDropsGarbageAndOversized(t *testing.T) {
	server := echoUDP(t)
	raw, err := net.Dial("udp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Garbage datagram: decode fails, must be counted dropped.
	if _, err := raw.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for server.TransportStats().DatagramsDropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("garbage datagram never counted as dropped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The server must still serve well-formed exchanges afterwards.
	client := newUDPClient(t)
	resp, ok, err := client.Exchange(context.Background(), server.Addr(),
		Request{From: client.Addr(), WantReply: true})
	if err != nil || !ok || resp.From != "server" {
		t.Fatalf("exchange after garbage: %v ok=%v resp=%+v", err, ok, resp)
	}
}

// TestUDPLossSurfacesAsUnreachable exercises the Fabric-style loss path:
// a datagram that never gets answered (here: sent into a swallowing
// socket) must surface as a timeout wrapped in ErrUnreachable and count
// as a dropped datagram, exactly like a Loss fault rule on the in-memory
// fabric surfaces ErrDropped.
func TestUDPLossSurfacesAsUnreachable(t *testing.T) {
	// A raw UDP socket that reads nothing: every request datagram is lost.
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	client := newUDPClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	_, _, err = client.Exchange(ctx, sink.LocalAddr().String(),
		Request{From: client.Addr(), WantReply: true})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v want ErrUnreachable", err)
	}
	if stats := client.TransportStats(); stats.DatagramsDropped != 1 {
		t.Errorf("dropped = %d want 1", stats.DatagramsDropped)
	}
	// Push-only exchanges are fire-and-forget: loss is invisible, which is
	// the UDP contract.
	if _, ok, err := client.Exchange(context.Background(), sink.LocalAddr().String(),
		Request{From: client.Addr()}); err != nil || ok {
		t.Errorf("push into sink: %v ok=%v", err, ok)
	}
}

func TestUDPClose(t *testing.T) {
	server := echoUDP(t)
	client := newUDPClient(t)
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil { // idempotent
		t.Errorf("second close: %v", err)
	}
	if _, _, err := client.Exchange(context.Background(), server.Addr(),
		Request{From: "x"}); !errors.Is(err, ErrClosed) {
		t.Errorf("exchange after close: %v want ErrClosed", err)
	}
}

// A response datagram whose WriteToUDP fails is lost exactly like a
// dropped datagram, so it must move DatagramsDropped — a silent return
// here was a blind spot in the exported wire counters.
func TestUDPFailedResponseWriteCounted(t *testing.T) {
	server := echoUDP(t)
	before := server.TransportStats()
	pull := func() *udpRequest {
		return &udpRequest{in: inbound{req: Request{From: "client", WantReply: true}}}
	}

	// The server socket is bound to IPv4 loopback; a non-mappable IPv6
	// destination makes WriteToUDP fail deterministically.
	badSrc := &net.UDPAddr{IP: net.ParseIP("fd00::1"), Port: 9}
	server.handleDatagram(pull(), badSrc)

	after := server.TransportStats()
	if got := after.DatagramsDropped - before.DatagramsDropped; got != 1 {
		t.Errorf("DatagramsDropped moved by %d, want 1", got)
	}
	if after.FramesOut != before.FramesOut {
		t.Errorf("FramesOut moved on a failed write: %d -> %d", before.FramesOut, after.FramesOut)
	}

	// Control: a writable source counts the frame and drops nothing.
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	server.handleDatagram(pull(), sink.LocalAddr().(*net.UDPAddr))
	final := server.TransportStats()
	if final.DatagramsDropped != after.DatagramsDropped {
		t.Errorf("successful write counted as dropped")
	}
	if final.FramesOut != after.FramesOut+1 {
		t.Errorf("successful write not counted: FramesOut %d -> %d", after.FramesOut, final.FramesOut)
	}
}

func TestRegistryResolvesAllBackends(t *testing.T) {
	want := []string{"tcp", "tcp-pooled", "udp"}
	got := Backends()
	for _, name := range want {
		found := false
		for _, g := range got {
			if g == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("backend %q not registered (have %v)", name, got)
		}
	}
	for _, name := range want {
		factory, err := NewFactory(name, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := factory(func(Request) (Response, bool) { return Response{}, false })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.Addr() == "" {
			t.Errorf("%s: empty address", name)
		}
		if _, ok := tr.(StatsReporter); !ok {
			t.Errorf("%s: does not report transport stats", name)
		}
		if err := tr.Close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
	}
	if _, err := NewFactory("carrier-pigeon", "127.0.0.1:0"); err == nil {
		t.Error("unknown backend accepted")
	}
	if got := fmt.Sprint(Backends()); !strings.Contains(got, "tcp-pooled") {
		t.Errorf("Backends() = %s", got)
	}
}
