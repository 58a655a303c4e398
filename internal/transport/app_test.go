package transport

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"
)

func TestAppMessageRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		msg   AppMessage
		reply bool
	}{
		{"push", AppMessage{From: "a:1", Topic: "broadcast", Payload: []byte("rumor")}, false},
		{"pull", AppMessage{From: "a:1", Topic: "aggregate", Payload: []byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, WantReply: true}, false},
		{"reply", AppMessage{From: "b:2", Topic: "aggregate", Payload: []byte{9}}, true},
		{"empty payload", AppMessage{From: "c:3", Topic: "t"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := AppendAppMessage(nil, tc.msg, tc.reply)
			if err != nil {
				t.Fatal(err)
			}
			if !isAppFrame(frame) {
				t.Fatal("encoded app frame not recognised by isAppFrame")
			}
			got, isReq, err := DecodeAppMessage(frame, nil)
			if err != nil {
				t.Fatal(err)
			}
			if isReq == tc.reply {
				t.Fatalf("isRequest = %v for reply=%v", isReq, tc.reply)
			}
			if got.From != tc.msg.From || got.Topic != tc.msg.Topic || !bytes.Equal(got.Payload, tc.msg.Payload) {
				t.Fatalf("round trip mismatch: %+v vs %+v", got, tc.msg)
			}
			if !tc.reply && got.WantReply != tc.msg.WantReply {
				t.Fatalf("WantReply = %v, want %v", got.WantReply, tc.msg.WantReply)
			}
		})
	}
}

func TestDecodeAppMessageRejects(t *testing.T) {
	valid, err := AppendAppMessage(nil, AppMessage{From: "a", Topic: "t", Payload: []byte("x")}, false)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{
		"empty":         {},
		"bad magic":     {0x00, kindApp, 0},
		"gossip kind":   {codecMagic, kindRequest, 0},
		"truncated":     valid[:len(valid)-1],
		"trailing":      append(append([]byte(nil), valid...), 0xFF),
		"unknown flags": {codecMagic, kindApp, 0x80, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, frame := range bad {
		if _, _, err := DecodeAppMessage(frame, nil); err == nil {
			t.Errorf("%s: decode accepted %x", name, frame)
		}
	}
}

// echoAppHandler replies with the payload reversed, proving the handler
// actually ran on the passive side.
func echoAppHandler(self string) AppHandler {
	return func(msg AppMessage) (AppMessage, bool) {
		rev := make([]byte, len(msg.Payload))
		for i, b := range msg.Payload {
			rev[len(rev)-1-i] = b
		}
		return AppMessage{From: self, Topic: msg.Topic, Payload: rev}, true
	}
}

// appCarrierRoundTrip exercises pull, push and no-handler delivery over
// any AppCarrier pair whose passive side listens at serverAddr.
func appCarrierRoundTrip(t *testing.T, client AppCarrier, serverAddr string, received *appSink) {
	t.Helper()
	ctx := context.Background()
	reply, ok, err := client.ExchangeApp(ctx, serverAddr,
		AppMessage{From: "client", Topic: "echo", Payload: []byte("abc"), WantReply: true})
	if err != nil || !ok {
		t.Fatalf("app pull: %v ok=%v", err, ok)
	}
	if reply.From != "server" || reply.Topic != "echo" || string(reply.Payload) != "cba" {
		t.Fatalf("app reply = %+v", reply)
	}
	if _, ok, err := client.ExchangeApp(ctx, serverAddr,
		AppMessage{From: "client", Topic: "push", Payload: []byte("fire-and-forget")}); err != nil || ok {
		t.Fatalf("app push: %v ok=%v", err, ok)
	}
	if got := received.wait(t, "push"); string(got) != "fire-and-forget" {
		t.Fatalf("push payload = %q", got)
	}
}

// appSink records pushed payloads by topic for the round-trip helper.
type appSink struct {
	mu   sync.Mutex
	got  map[string][]byte
	cond chan struct{}
}

func newAppSink() *appSink {
	return &appSink{got: make(map[string][]byte), cond: make(chan struct{}, 16)}
}

func (s *appSink) note(msg AppMessage) {
	s.mu.Lock()
	s.got[msg.Topic] = append([]byte(nil), msg.Payload...)
	s.mu.Unlock()
	select {
	case s.cond <- struct{}{}:
	default:
	}
}

func (s *appSink) wait(t *testing.T, topic string) []byte {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		s.mu.Lock()
		got, ok := s.got[topic]
		s.mu.Unlock()
		if ok {
			return got
		}
		select {
		case <-s.cond:
		case <-deadline:
			t.Fatalf("no app message on topic %q", topic)
		}
	}
}

// sinkingEcho combines the echo handler (for pulls) with the sink (for
// pushes) on one endpoint.
func sinkingEcho(sink *appSink) AppHandler {
	echo := echoAppHandler("server")
	return func(msg AppMessage) (AppMessage, bool) {
		if !msg.WantReply {
			sink.note(msg)
			return AppMessage{}, false
		}
		return echo(msg)
	}
}

func TestTCPAppExchange(t *testing.T) {
	noop := func(Request) (Response, bool) { return Response{}, false }
	server, err := ListenTCP("127.0.0.1:0", noop, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	sink := newAppSink()
	server.SetAppHandler(sinkingEcho(sink))

	client, err := ListenTCP("127.0.0.1:0", noop, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	appCarrierRoundTrip(t, client, server.Addr(), sink)
}

func TestPooledTCPAppExchange(t *testing.T) {
	noop := func(Request) (Response, bool) { return Response{}, false }
	server, err := ListenPooledTCP("127.0.0.1:0", noop, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	sink := newAppSink()
	server.SetAppHandler(sinkingEcho(sink))

	client, err := ListenPooledTCP("127.0.0.1:0", noop, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	appCarrierRoundTrip(t, client, server.Addr(), sink)

	// Gossip and app frames interleave on the same pooled connections.
	resp, ok, err := client.Exchange(context.Background(), server.Addr(),
		Request{From: client.Addr(), WantReply: false})
	if err != nil {
		t.Fatalf("gossip push after app frames: %v ok=%v resp=%+v", err, ok, resp)
	}
	reply, ok, err := client.ExchangeApp(context.Background(), server.Addr(),
		AppMessage{From: client.Addr(), Topic: "echo", Payload: []byte("xy"), WantReply: true})
	if err != nil || !ok || string(reply.Payload) != "yx" {
		t.Fatalf("app pull after gossip push: %v ok=%v reply=%+v", err, ok, reply)
	}
}

func TestUDPAppExchange(t *testing.T) {
	noop := func(Request) (Response, bool) { return Response{}, false }
	server, err := ListenUDP("127.0.0.1:0", noop, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	sink := newAppSink()
	server.SetAppHandler(sinkingEcho(sink))

	client, err := ListenUDP("127.0.0.1:0", noop, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	appCarrierRoundTrip(t, client, server.Addr(), sink)
}

func TestFabricAppExchange(t *testing.T) {
	fab := NewFabric()
	noop := func(Request) (Response, bool) { return Response{}, false }
	serverT, err := fab.Endpoint("server", noop)
	if err != nil {
		t.Fatal(err)
	}
	sink := newAppSink()
	server := serverT.(AppCarrier)
	server.SetAppHandler(sinkingEcho(sink))
	clientT, err := fab.Endpoint("client", noop)
	if err != nil {
		t.Fatal(err)
	}
	appCarrierRoundTrip(t, clientT.(AppCarrier), "server", sink)
}

func TestAppFrameNoHandlerDropped(t *testing.T) {
	noop := func(Request) (Response, bool) { return Response{}, false }
	server, err := ListenTCP("127.0.0.1:0", noop, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := ListenTCP("127.0.0.1:0", noop, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// A push into an endpoint with no app handler is silently dropped;
	// the gossip path must keep working on the same listener.
	if _, ok, err := client.ExchangeApp(context.Background(), server.Addr(),
		AppMessage{From: "client", Topic: "void", Payload: []byte("lost")}); err != nil || ok {
		t.Fatalf("push to handlerless endpoint: %v ok=%v", err, ok)
	}
	deadline := time.Now().Add(2 * time.Second)
	for server.TransportStats().DatagramsDropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dropped app frame never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func FuzzDecodeAppMessage(f *testing.F) {
	push, err := AppendAppMessage(nil, AppMessage{From: "10.0.0.1:9", Topic: "broadcast", Payload: []byte("r")}, false)
	if err != nil {
		f.Fatal(err)
	}
	pull, err := AppendAppMessage(nil, AppMessage{From: "a", Topic: "aggregate", Payload: bytes.Repeat([]byte{7}, 9), WantReply: true}, false)
	if err != nil {
		f.Fatal(err)
	}
	reply, err := AppendAppMessage(nil, AppMessage{From: "b", Topic: "aggregate", Payload: []byte{1, 2}}, true)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{push, pull, reply, push[:3], {codecMagic, kindApp, 0}, {}} {
		f.Add(seed)
	}
	var in Interner
	f.Fuzz(func(t *testing.T, frame []byte) {
		msg, isReq, err := DecodeAppMessage(frame, nil)
		imsg, iisReq, ierr := DecodeAppMessage(frame, &in)
		if (err == nil) != (ierr == nil) {
			t.Fatalf("interned decode disagrees on error: %v vs %v", err, ierr)
		}
		if err != nil {
			return
		}
		if iisReq != isReq || imsg.From != msg.From || imsg.Topic != msg.Topic || !bytes.Equal(imsg.Payload, msg.Payload) {
			t.Fatalf("interned decode diverges: %+v vs %+v", imsg, msg)
		}
		// The format is canonical: accepted frames re-encode byte-identically.
		reencoded, err := AppendAppMessage(nil, msg, !isReq)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(reencoded, frame) {
			t.Fatalf("re-encoding differs:\n in: %x\nout: %x", frame, reencoded)
		}
	})
}
