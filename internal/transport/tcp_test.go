package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

func TestTCPExchangeRoundTrip(t *testing.T) {
	server, err := ListenTCP("127.0.0.1:0", func(req Request) (Response, bool) {
		if !req.WantReply {
			return Response{}, false
		}
		return Response{From: "server", Buffer: req.Buffer}, true
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	client, err := ListenTCP("127.0.0.1:0", func(Request) (Response, bool) { return Response{}, false }, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	req := Request{From: client.Addr(), WantReply: true, Buffer: []Descriptor{{Addr: "x", Hop: 2}}}
	resp, ok, err := client.Exchange(context.Background(), server.Addr(), req)
	if err != nil || !ok {
		t.Fatalf("exchange: %v ok=%v", err, ok)
	}
	if resp.From != "server" || len(resp.Buffer) != 1 || resp.Buffer[0] != req.Buffer[0] {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestTCPPushOnly(t *testing.T) {
	received := make(chan Request, 1)
	server, err := ListenTCP("127.0.0.1:0", func(req Request) (Response, bool) {
		received <- req
		return Response{}, false
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := ListenTCP("127.0.0.1:0", func(Request) (Response, bool) { return Response{}, false }, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	_, ok, err := client.Exchange(context.Background(), server.Addr(), Request{From: client.Addr()})
	if err != nil || ok {
		t.Fatalf("push exchange: %v ok=%v", err, ok)
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

func TestTCPUnreachable(t *testing.T) {
	client, err := ListenTCP("127.0.0.1:0", func(Request) (Response, bool) { return Response{}, false }, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Grab a port and close it again so nothing listens there.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, _, err = client.Exchange(ctx, dead, Request{From: client.Addr(), WantReply: true})
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v want ErrUnreachable", err)
	}
}

func TestTCPCloseStopsService(t *testing.T) {
	server, err := ListenTCP("127.0.0.1:0", func(Request) (Response, bool) { return Response{}, false }, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	addr := server.Addr()
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	if err := server.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, _, err := server.Exchange(context.Background(), addr, Request{From: "x"}); !errors.Is(err, ErrClosed) {
		t.Errorf("exchange after close: %v want ErrClosed", err)
	}
}

func TestTCPServerSurvivesGarbage(t *testing.T) {
	server, err := ListenTCP("127.0.0.1:0", func(req Request) (Response, bool) {
		return Response{From: "server"}, req.WantReply
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	// A raw connection that sends garbage must not take the server down.
	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = conn.Write([]byte{0x00, 0x00, 0x00, 0x03, 0xDE, 0xAD, 0xBE})
	conn.Close()

	client, err := ListenTCP("127.0.0.1:0", func(Request) (Response, bool) { return Response{}, false }, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, ok, err := client.Exchange(ctx, server.Addr(), Request{From: client.Addr(), WantReply: true}); err != nil || !ok {
		t.Fatalf("exchange after garbage: %v ok=%v", err, ok)
	}
}

func TestTCPRejectsOversizedFrame(t *testing.T) {
	server, err := ListenTCP("127.0.0.1:0", func(Request) (Response, bool) { return Response{}, false }, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Announce a frame far beyond the limit; the server must hang up
	// rather than allocate.
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Error("server kept the connection open after oversized frame")
	}
	if stats := server.TransportStats(); stats.DatagramsDropped != 1 {
		t.Errorf("dropped = %d want 1 (oversized frame must be counted)", stats.DatagramsDropped)
	}
}
