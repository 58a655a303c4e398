package transport

import (
	"context"
	"errors"
	"testing"
)

func echoHandler(self string) Handler {
	return func(req Request) (Response, bool) {
		if !req.WantReply {
			return Response{}, false
		}
		return Response{From: self, Buffer: req.Buffer}, true
	}
}

func TestFabricExchange(t *testing.T) {
	f := NewFabric()
	a, err := f.Endpoint("a", echoHandler("a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Endpoint("b", echoHandler("b")); err != nil {
		t.Fatal(err)
	}
	req := Request{From: "a", WantReply: true, Buffer: []Descriptor{{Addr: "x", Hop: 1}}}
	resp, ok, err := a.Exchange(context.Background(), "b", req)
	if err != nil || !ok {
		t.Fatalf("exchange: %v ok=%v", err, ok)
	}
	if resp.From != "b" || len(resp.Buffer) != 1 || resp.Buffer[0].Addr != "x" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestFabricPushOnlyNoReply(t *testing.T) {
	f := NewFabric()
	a, _ := f.Endpoint("a", echoHandler("a"))
	if _, err := f.Endpoint("b", echoHandler("b")); err != nil {
		t.Fatal(err)
	}
	_, ok, err := a.Exchange(context.Background(), "b", Request{From: "a", WantReply: false})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("push-only exchange produced a reply")
	}
}

func TestFabricUnreachable(t *testing.T) {
	f := NewFabric()
	a, _ := f.Endpoint("a", echoHandler("a"))
	_, _, err := a.Exchange(context.Background(), "ghost", Request{From: "a"})
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v want ErrUnreachable", err)
	}
}

func TestFabricDuplicateAddress(t *testing.T) {
	f := NewFabric()
	if _, err := f.Endpoint("a", echoHandler("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Endpoint("a", echoHandler("a")); err == nil {
		t.Error("duplicate address accepted")
	}
	if _, err := f.Endpoint("b", nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestFabricClose(t *testing.T) {
	f := NewFabric()
	a, _ := f.Endpoint("a", echoHandler("a"))
	b, _ := f.Endpoint("b", echoHandler("b"))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Exchange(context.Background(), "b", Request{From: "a", WantReply: true}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("exchange with closed endpoint: %v want ErrUnreachable", err)
	}
	if _, _, err := b.Exchange(context.Background(), "a", Request{From: "b"}); !errors.Is(err, ErrClosed) {
		t.Errorf("exchange from closed endpoint: %v want ErrClosed", err)
	}
	// The address becomes reusable after Close.
	if _, err := f.Endpoint("b", echoHandler("b")); err != nil {
		t.Errorf("re-register after close: %v", err)
	}
}

func TestFabricDeliversCopies(t *testing.T) {
	var captured Request
	f := NewFabric()
	a, _ := f.Endpoint("a", echoHandler("a"))
	_, err := f.Endpoint("b", func(req Request) (Response, bool) {
		captured = req
		return Response{From: "b"}, true
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := []Descriptor{{Addr: "x", Hop: 1}}
	if _, _, err := a.Exchange(context.Background(), "b", Request{From: "a", WantReply: true, Buffer: buf}); err != nil {
		t.Fatal(err)
	}
	buf[0].Hop = 99
	if captured.Buffer[0].Hop != 1 {
		t.Error("fabric shared buffer memory between sender and receiver")
	}
}

func TestFabricFactory(t *testing.T) {
	f := NewFabric()
	factory := f.Factory("node")
	a, err := factory(echoHandler("?"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := factory(echoHandler("?"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Addr() != "node-0" || b.Addr() != "node-1" {
		t.Errorf("factory addresses = %q, %q", a.Addr(), b.Addr())
	}
}
