package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// MaxDatagramSize bounds one encoded message carried in a single UDP
// datagram. It is far below the codec's MaxFrameSize: a datagram must
// traverse real networks unfragmented-ish, so the UDP transport rejects
// views whose encoding exceeds this rather than silently truncating.
const MaxDatagramSize = 60 * 1024

// ErrOversized is returned when an encoded message does not fit in one
// datagram. Callers should shrink the view (lower ViewSize) or switch to
// a TCP backend.
var ErrOversized = errors.New("transport: message exceeds datagram size")

// UDP is the datagram transport: one exchange, gossip or app, per
// datagram pair — the request in one datagram and, for pull-enabled
// exchanges, the reply in another. There is no connection state at all,
// which makes it the cheapest backend per exchange — and, like the
// underlying network, it is lossy: a dropped datagram surfaces as an
// ErrUnreachable timeout on the active side, exactly the failure the
// protocol's self-healing tolerates.
//
// Incoming requests are handled on their own goroutines so one slow
// handler cannot stall the socket, bounded by Limits.MaxConns; a datagram
// arriving while every slot is busy is dropped and counted in
// Stats.AcceptRejects, the datagram analogue of refusing a connection.
type UDP struct {
	conn     *net.UDPConn
	handler  Handler
	apps     appHandlerBox
	stats    counters
	gate     *connGate
	wg       sync.WaitGroup // in-flight handler goroutines
	done     chan struct{}
	closeOne sync.Once
}

var (
	_ Transport     = (*UDP)(nil)
	_ StatsReporter = (*UDP)(nil)
	_ LimitsUpdater = (*UDP)(nil)
	_ AppCarrier    = (*UDP)(nil)
)

// datagramBufs recycles max-size receive buffers across exchanges; one
// datagram buffer per in-flight pull keeps the hot path allocation-free.
// The extra byte detects datagrams truncated at the limit.
var datagramBufs = sync.Pool{
	New: func() any {
		b := make([]byte, MaxDatagramSize+1)
		return &b
	},
}

// udpRequests recycles the decode state of incoming datagrams. A request
// is decoded synchronously on the serve loop but handled on its own
// goroutine, so each in-flight request owns its state until the handler
// goroutine returns it; the pool bounds steady-state allocation at zero
// without sharing scratch across concurrent handlers.
var udpRequests = sync.Pool{New: func() any { return new(udpRequest) }}

type udpRequest struct {
	in      inbound
	dec     Decoder
	outBuf  []byte // reply encode buffer, reused with the entry
	payload []byte // app payload copy: the receive buffer is reused before the handler runs
}

// udpDefaultTimeout bounds an exchange awaiting a response datagram when
// the caller's context has no earlier deadline. It is deliberately
// shorter than the TCP timeout: with no connection to establish, a
// response either arrives promptly or the datagram is gone.
const udpDefaultTimeout = 2 * time.Second

// ListenUDP starts serving datagrams on addr (e.g. "127.0.0.1:0") with h
// handling incoming exchanges, under the default Limits.
func ListenUDP(addr string, h Handler) (*UDP, error) {
	return ListenUDPLimits(addr, h, Limits{})
}

// ListenUDPLimits is ListenUDP with explicit transport hardening limits.
// Only Limits.MaxConns applies (it caps concurrent handler goroutines);
// datagrams have no connections to keep alive.
func ListenUDPLimits(addr string, h Handler, lim Limits) (*UDP, error) {
	if h == nil {
		return nil, errors.New("transport: nil handler")
	}
	if err := lim.fill(); err != nil {
		return nil, err
	}
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen udp %s: %w", addr, err)
	}
	t := &UDP{conn: conn, handler: h, done: make(chan struct{})}
	t.gate = newConnGate(lim.MaxConns, &t.stats.acceptRejects)
	go t.serve()
	return t, nil
}

// SetLimits implements LimitsUpdater: it validates lim and applies
// MaxConns (the concurrent-handler cap, the only field the datagram
// backend uses) to the live socket.
func (t *UDP) SetLimits(lim Limits) error {
	if err := lim.fill(); err != nil {
		return err
	}
	t.gate.setMax(lim.MaxConns)
	return nil
}

// Addr implements Transport.
func (t *UDP) Addr() string { return t.conn.LocalAddr().String() }

// TransportStats implements StatsReporter.
func (t *UDP) TransportStats() Stats { return t.stats.snapshot() }

func (t *UDP) serve() {
	defer close(t.done)
	// One extra byte detects datagrams truncated at the limit.
	buf := make([]byte, MaxDatagramSize+1)
	for {
		n, src, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		if n > MaxDatagramSize {
			t.stats.dropped.Add(1)
			continue
		}
		t.stats.noteRead(n)
		// Decode synchronously into a pooled request state: buf is free
		// for the next datagram, while the decoded request travels to its
		// handler goroutine owning its descriptors and app payload.
		ur := udpRequests.Get().(*udpRequest)
		if err := ur.in.decode(buf[:n], &ur.dec); err != nil {
			udpRequests.Put(ur)
			t.stats.dropped.Add(1)
			continue
		}
		if ur.in.app {
			ur.payload = append(ur.payload[:0], ur.in.msg.Payload...)
			ur.in.msg.Payload = ur.payload
		}
		if !t.gate.tryAcquire() {
			udpRequests.Put(ur)
			continue // handler slots exhausted; counted as an accept reject
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer t.gate.release()
			defer udpRequests.Put(ur)
			t.handleDatagram(ur, src)
		}()
	}
}

// handleDatagram runs the handler for one decoded request and writes the
// reply datagram when the request pulls one. ur owns the request's
// storage and the reply encode buffer.
func (t *UDP) handleDatagram(ur *udpRequest, src *net.UDPAddr) {
	out, err := ur.in.answer(ur.outBuf[:0], t.handler, t.apps.load(), &t.stats)
	switch {
	case err != nil || len(out) > MaxDatagramSize:
		// The wire has no error frames, so an unencodable or
		// oversized reply can only be dropped and counted. This
		// node's view is the oversized one, and its own active
		// exchanges fail with ErrOversized, so the misconfiguration
		// is loud locally even though the puller just times out.
		t.stats.dropped.Add(1)
		return
	case out == nil:
		return
	}
	ur.outBuf = out
	if _, err := t.conn.WriteToUDP(out, src); err != nil {
		// The reply is gone and the puller will time out; without a
		// counter move this failure mode is invisible to the exporter.
		t.stats.dropped.Add(1)
		return
	}
	t.stats.noteWrite(len(out))
}

// SetAppHandler implements AppCarrier.
func (t *UDP) SetAppHandler(h AppHandler) { t.apps.store(h) }

// Exchange implements Transport.
func (t *UDP) Exchange(ctx context.Context, addr string, req Request) (Response, bool, error) {
	framep := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(framep)
	frame, err := AppendRequest((*framep)[:0], req)
	if err != nil {
		return Response{}, false, err
	}
	*framep = frame[:0]
	return datagramRoundTrip[Response](t, ctx, addr, frame, req.WantReply)
}

// ExchangeApp implements AppCarrier: an app message takes the same
// datagram round trip as a gossip request.
func (t *UDP) ExchangeApp(ctx context.Context, addr string, msg AppMessage) (AppMessage, bool, error) {
	framep := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(framep)
	frame, err := AppendAppMessage((*framep)[:0], msg, false)
	if err != nil {
		return AppMessage{}, false, err
	}
	*framep = frame[:0]
	return datagramRoundTrip[AppMessage](t, ctx, addr, frame, msg.WantReply)
}

// datagramRoundTrip is the active side of every UDP exchange. Each uses a
// short-lived connected socket so the reply datagram (if any) is matched
// to this exchange by the kernel, with no sequence numbers in the
// protocol.
func datagramRoundTrip[R replyMsg](t *UDP, ctx context.Context, addr string, frame []byte, wantReply bool) (R, bool, error) {
	var none R
	select {
	case <-t.done:
		return none, false, ErrClosed
	default:
	}
	deadline := linkDeadline(ctx, udpDefaultTimeout)
	if len(frame) > MaxDatagramSize {
		return none, false, fmt.Errorf("%w: %d bytes > %d", ErrOversized, len(frame), MaxDatagramSize)
	}
	conn, err := dialPeer(ctx, "udp", addr, deadline, &t.stats)
	if err != nil {
		return none, false, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(deadline)
	if _, err := conn.Write(frame); err != nil {
		return none, false, unreachable(addr, err)
	}
	t.stats.noteWrite(len(frame))
	if !wantReply {
		return none, false, nil
	}
	buf := datagramBufs.Get().(*[]byte)
	defer datagramBufs.Put(buf)
	n, err := conn.Read(*buf)
	if err != nil {
		// Timeout: the request or reply datagram was lost, or the peer
		// is gone. Indistinguishable by design.
		t.stats.dropped.Add(1)
		return none, false, unreachable(addr, err)
	}
	if n > MaxDatagramSize {
		t.stats.dropped.Add(1)
		return none, false, fmt.Errorf("%w: response %d bytes", ErrOversized, n)
	}
	t.stats.noteRead(n)
	out, err := decodeReply[R]((*buf)[:n], &t.stats)
	return out, err == nil, err
}

// Close implements Transport: it closes the socket and waits for the
// serve loop and in-flight handlers to drain. Close is idempotent.
func (t *UDP) Close() error {
	var err error
	t.closeOne.Do(func() { err = t.conn.Close() })
	<-t.done
	t.wg.Wait()
	return err
}
