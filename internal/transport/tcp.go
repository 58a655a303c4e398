package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// tcpDefaultTimeout bounds a whole exchange (dial + write + read) when the
// caller's context has no earlier deadline.
const tcpDefaultTimeout = 5 * time.Second

// Pool tuning defaults. Gossip traffic is one exchange per peer per
// period, so a small idle pool per peer is plenty; the idle timeout only
// needs to outlive a handful of periods to turn every steady-state
// exchange into a reuse.
const (
	// DefaultMaxIdlePerPeer caps the idle connections a pooled transport
	// retains per peer address; surplus connections are closed on release.
	DefaultMaxIdlePerPeer = 2
	DefaultIdleTimeout    = time.Minute
	// poolSweepDivisor sets how often the eviction sweep runs relative to
	// the idle timeout.
	poolSweepDivisor = 4
	// noIdlePool is the idle budget ListenTCP builds the stream transport
	// with: release closes every connection, so each exchange dials a
	// fresh one and the stale-connection retry never fires.
	noIdlePool = 0
)

// PoolConfig tunes the idle pool of a transport built by ListenPooledTCP.
// The zero value selects the defaults above.
type PoolConfig struct {
	// IdleTimeout evicts pooled connections unused for this long. Values
	// above DefaultIdleTimeout (or below a millisecond) are rejected at
	// construction: the passive side of every TCP backend keeps served
	// connections for (by default) twice the DEFAULT idle timeout, and the
	// initiating side abandoning a connection within the default window is
	// what guarantees a push is never written into a connection the peer
	// has already closed.
	IdleTimeout time.Duration
	// Limits hardens the listener side (connection cap, keep-alive
	// budgets); the zero value selects the defaults. It bounds what this
	// endpoint serves, not what it dials.
	Limits Limits
}

func (c *PoolConfig) fill() error {
	switch {
	case c.IdleTimeout == 0:
		c.IdleTimeout = DefaultIdleTimeout
	case c.IdleTimeout < time.Millisecond:
		// Also guards the sweep ticker: IdleTimeout below
		// poolSweepDivisor nanoseconds would zero its interval.
		return fmt.Errorf("transport: pool idle timeout %v is below the 1ms minimum", c.IdleTimeout)
	case c.IdleTimeout > DefaultIdleTimeout:
		// Silently clamping would quietly disable pooling instead;
		// surface the conflict with the passive keep-alive guarantee.
		return fmt.Errorf("transport: pool idle timeout %v exceeds the %v maximum (peers only keep served connections for twice that long)",
			c.IdleTimeout, DefaultIdleTimeout)
	}
	return c.Limits.fill()
}

// TCP is the stream transport: length-prefixed gossip and app frames over
// TCP connections, one request frame and, for pulls, one reply frame per
// exchange. Built by ListenPooledTCP (the "tcp-pooled" backend) it keeps
// a small idle pool per peer and runs many exchanges over each
// connection, amortising the dial across the node's lifetime; idle
// connections are evicted after PoolConfig.IdleTimeout. Built by
// ListenTCP (the "tcp" backend) it keeps no idle connections, so every
// exchange dials a fresh one — the simple baseline, where the dial
// dominates at high gossip rates. The passive side is the same either
// way: it serves frames in a loop until its peer goes quiet for its
// earned keep-alive budget (Limits), so both kinds of peer interoperate.
type TCP struct {
	listener    net.Listener
	handler     Handler
	maxIdle     int // idle connections kept per peer; noIdlePool for "tcp"
	idleTimeout time.Duration
	limits      limitsBox // current serve-side Limits
	apps        appHandlerBox
	gate        *connGate
	stats       counters

	mu     sync.Mutex
	closed bool
	idle   map[string][]*pooledConn // peer address -> idle connections, oldest first
	reg    *connRegistry            // accepted connections currently being served
	wg     sync.WaitGroup
	stop   chan struct{}
}

var (
	_ Transport     = (*TCP)(nil)
	_ StatsReporter = (*TCP)(nil)
	_ LimitsUpdater = (*TCP)(nil)
	_ AppCarrier    = (*TCP)(nil)
)

// pooledConn is an outbound connection plus the time it was returned to
// the pool, which drives idle eviction.
type pooledConn struct {
	conn     net.Conn
	idleFrom time.Time
	reused   bool
}

// ListenTCP starts serving on addr (e.g. "127.0.0.1:0") with h handling
// incoming exchanges, under the default Limits. Every exchange it
// initiates dials a fresh connection.
func ListenTCP(addr string, h Handler) (*TCP, error) {
	return ListenTCPLimits(addr, h, Limits{})
}

// ListenTCPLimits is ListenTCP with explicit transport hardening limits
// (connection cap and keep-alive budgets); the zero Limits selects the
// defaults.
func ListenTCPLimits(addr string, h Handler, lim Limits) (*TCP, error) {
	return listenStream(addr, h, PoolConfig{Limits: lim}, false)
}

// ListenPooledTCP starts serving on addr with h handling incoming
// exchanges, pooling outbound connections per PoolConfig.
func ListenPooledTCP(addr string, h Handler, cfg PoolConfig) (*TCP, error) {
	return listenStream(addr, h, cfg, true)
}

// listenStream builds the stream transport, with the idle pool cfg
// describes or, unpooled, with noIdlePool.
func listenStream(addr string, h Handler, cfg PoolConfig, pooled bool) (*TCP, error) {
	if h == nil {
		return nil, errors.New("transport: nil handler")
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &TCP{
		listener:    l,
		handler:     h,
		maxIdle:     noIdlePool,
		idleTimeout: cfg.IdleTimeout,
		idle:        make(map[string][]*pooledConn),
		reg:         newConnRegistry(),
		stop:        make(chan struct{}),
	}
	t.limits.store(cfg.Limits)
	t.gate = newConnGate(cfg.Limits.MaxConns, &t.stats.acceptRejects)
	t.wg.Add(1)
	go t.serve()
	if pooled {
		t.maxIdle = DefaultMaxIdlePerPeer
		t.wg.Add(1)
		go t.sweepLoop()
	}
	return t, nil
}

// SetLimits implements LimitsUpdater: it validates lim and applies it to
// the live listener — the connection cap to future accepts, the
// keep-alive budgets from each served connection's next frame. The
// dialing side's pool tuning is fixed at construction.
func (t *TCP) SetLimits(lim Limits) error {
	if err := lim.fill(); err != nil {
		return err
	}
	t.limits.store(lim)
	t.gate.setMax(lim.MaxConns)
	return nil
}

// Addr implements Transport; it returns the bound address, with the
// ephemeral port resolved.
func (t *TCP) Addr() string { return t.listener.Addr().String() }

// TransportStats implements StatsReporter.
func (t *TCP) TransportStats() Stats { return t.stats.snapshot() }

// SetAppHandler implements AppCarrier.
func (t *TCP) SetAppHandler(h AppHandler) { t.apps.store(h) }

// Exchange implements Transport.
func (t *TCP) Exchange(ctx context.Context, addr string, req Request) (Response, bool, error) {
	framep := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(framep)
	frame, err := AppendRequest(append((*framep)[:0], 0, 0, 0, 0), req)
	if err != nil {
		return Response{}, false, err
	}
	*framep = frame[:0]
	return streamRoundTrip[Response](t, ctx, addr, frame, req.WantReply)
}

// ExchangeApp implements AppCarrier: an app frame takes the same round
// trip, over the same connections, as a gossip request.
func (t *TCP) ExchangeApp(ctx context.Context, addr string, msg AppMessage) (AppMessage, bool, error) {
	framep := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(framep)
	frame, err := AppendAppMessage(append((*framep)[:0], 0, 0, 0, 0), msg, false)
	if err != nil {
		return AppMessage{}, false, err
	}
	*framep = frame[:0]
	return streamRoundTrip[AppMessage](t, ctx, addr, frame, msg.WantReply)
}

// streamRoundTrip is the active side of every stream exchange. frame is
// an encoded message behind a reserved length prefix. It borrows a pooled
// connection to addr (dialing one if none is idle), runs the exchange
// over it and returns it to the pool on success. An exchange that fails
// on a reused connection is retried once on a fresh dial: the pooled
// connection may simply have been closed by the peer's idle timer, and
// gossip view merges tolerate the rare duplicate delivery this can cause.
// A failure that already consumed the deadline is reported as-is: a
// retry could never complete.
func streamRoundTrip[R replyMsg](t *TCP, ctx context.Context, addr string, frame []byte, wantReply bool) (R, bool, error) {
	var none R
	if t.isClosed() {
		return none, false, ErrClosed
	}
	deadline := linkDeadline(ctx, tcpDefaultTimeout)
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-frameHeaderSize))
	pc, err := t.borrow(ctx, addr, deadline)
	if err != nil {
		return none, false, err
	}
	out, ok, err := exchangeOn[R](t, pc, addr, frame, wantReply, deadline)
	if err != nil && pc.reused && ctx.Err() == nil && time.Now().Before(deadline) {
		if pc, err = t.dial(ctx, addr, deadline); err != nil {
			return none, false, err
		}
		out, ok, err = exchangeOn[R](t, pc, addr, frame, wantReply, deadline)
	}
	return out, ok, err
}

// exchangeOn runs one framed exchange over pc, releasing it back to the
// pool on success and closing it on failure.
func exchangeOn[R replyMsg](t *TCP, pc *pooledConn, addr string, frame []byte, wantReply bool, deadline time.Time) (R, bool, error) {
	_ = pc.conn.SetDeadline(deadline)
	out, ok, err := exchangeFrames[R](pc.conn, frame, wantReply, addr, &t.stats)
	if err != nil {
		pc.conn.Close()
		return out, false, err
	}
	t.release(addr, pc)
	return out, ok, nil
}

// exchangeFrames writes frame over conn and, when wantReply is set, reads
// and decodes the reply frame. The read scratch is pooled; the returned
// reply owns its memory.
func exchangeFrames[R replyMsg](conn net.Conn, frame []byte, wantReply bool, addr string, stats *counters) (R, bool, error) {
	var none R
	if _, err := conn.Write(frame); err != nil {
		return none, false, unreachable(addr, err)
	}
	stats.noteWrite(len(frame))
	if !wantReply {
		return none, false, nil
	}
	bufp := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(bufp)
	in, err := readFrameInto(conn, (*bufp)[:0])
	if err != nil {
		if errors.Is(err, errFrameTooLarge) {
			stats.dropped.Add(1)
		}
		return none, false, unreachable(addr, err)
	}
	*bufp = in[:0]
	stats.noteRead(len(in) + frameHeaderSize)
	out, err := decodeReply[R](in, stats)
	return out, err == nil, err
}

// isClosed reports whether Close has run, without taking the pool lock:
// Close closes stop right after marking the transport closed.
func (t *TCP) isClosed() bool {
	select {
	case <-t.stop:
		return true
	default:
		return false
	}
}

// borrow returns an idle pooled connection to addr or dials a new one.
// Connections idle past the timeout are discarded here even if the sweep
// has not caught them yet: the borrow-time check is exact where the
// sweeper is periodic, and it upholds the invariant that this side never
// reuses a connection the peer's (2x longer) passive deadline may have
// closed — which would silently swallow push-only exchanges.
func (t *TCP) borrow(ctx context.Context, addr string, deadline time.Time) (*pooledConn, error) {
	cutoff := time.Now().Add(-t.idleTimeout)
	var stale []*pooledConn
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	var fresh *pooledConn
	if conns := t.idle[addr]; len(conns) > 0 {
		// Pop the most recently used connection: it is the least likely to
		// have gone stale.
		for i := len(conns) - 1; i >= 0; i-- {
			if conns[i].idleFrom.Before(cutoff) {
				// Older entries can only be staler; discard the rest.
				stale = append(stale, conns[:i+1]...)
				conns = conns[i+1:]
				break
			}
			if fresh == nil {
				fresh = conns[i]
				conns = conns[:i]
			}
		}
		if len(conns) == 0 {
			delete(t.idle, addr)
		} else {
			t.idle[addr] = conns
		}
	}
	t.mu.Unlock()
	for _, pc := range stale {
		pc.conn.Close()
	}
	if fresh != nil {
		fresh.reused = true
		t.stats.reuses.Add(1)
		return fresh, nil
	}
	return t.dial(ctx, addr, deadline)
}

func (t *TCP) dial(ctx context.Context, addr string, deadline time.Time) (*pooledConn, error) {
	conn, err := dialPeer(ctx, "tcp", addr, deadline, &t.stats)
	if err != nil {
		return nil, err
	}
	return &pooledConn{conn: conn}, nil
}

// release returns a healthy connection to the idle pool, or closes it if
// the pool is full (always, with noIdlePool) or the transport shut down
// meanwhile.
func (t *TCP) release(addr string, pc *pooledConn) {
	pc.idleFrom = time.Now()
	t.mu.Lock()
	if !t.closed && len(t.idle[addr]) < t.maxIdle {
		t.idle[addr] = append(t.idle[addr], pc)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	pc.conn.Close()
}

// sweepLoop periodically evicts connections idle past the timeout.
func (t *TCP) sweepLoop() {
	defer t.wg.Done()
	ticker := time.NewTicker(t.idleTimeout / poolSweepDivisor)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
			t.sweep(time.Now())
		}
	}
}

// sweep closes and forgets idle connections older than the idle timeout.
func (t *TCP) sweep(now time.Time) {
	cutoff := now.Add(-t.idleTimeout)
	var victims []*pooledConn
	t.mu.Lock()
	for addr, conns := range t.idle {
		// Connections are appended in release order, so the stale prefix is
		// everything returned before the cutoff.
		stale := 0
		for stale < len(conns) && conns[stale].idleFrom.Before(cutoff) {
			stale++
		}
		if stale == 0 {
			continue
		}
		victims = append(victims, conns[:stale]...)
		rest := conns[stale:]
		if len(rest) == 0 {
			delete(t.idle, addr)
		} else {
			t.idle[addr] = append(conns[:0], rest...)
		}
	}
	t.mu.Unlock()
	for _, pc := range victims {
		pc.conn.Close()
	}
}

// Close implements Transport: it stops the listener and sweeper, closes
// every pooled connection, unblocks served keep-alive connections and
// waits for in-flight handlers.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	pools := t.idle
	t.idle = make(map[string][]*pooledConn)
	t.mu.Unlock()
	close(t.stop)
	for _, conns := range pools {
		for _, pc := range conns {
			pc.conn.Close()
		}
	}
	// Unblock passive handlers parked between frames; waiting for their
	// peers' idle timers would stall Close for minutes.
	t.reg.closeAll()
	err := t.listener.Close()
	t.wg.Wait()
	return err
}

// serve is the hardened accept path: it admits connections through the
// gate and serves each admitted one on its own goroutine, closing
// over-cap connections immediately. It returns when the listener closes.
func (t *TCP) serve() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if !t.gate.tryAcquire() {
			conn.Close()
			continue
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer t.gate.release()
			t.serveConn(conn)
		}()
	}
}

// connScratch is the per-connection reusable state of the passive codec
// path: the frame read buffer, the decoder (descriptor scratch plus
// address interner) and the reply encode buffer. One goroutine serves
// one connection, so none of it needs locking.
type connScratch struct {
	readBuf []byte
	outBuf  []byte
	dec     Decoder
}

// serveConn is the passive side of a connection: it reads frames and
// hands them to handleFrame until the peer closes, misbehaves, exceeds
// its read budget, or the transport shuts down. Persistent (pooled) peers
// reuse the connection for many exchanges; dial-per-exchange peers close
// after one, ending the loop with EOF. The budget schedule is the current
// Limits, re-read before every frame so a live SetLimits takes effect on
// connections already being served: a slowloris window before the
// opening frame, then the keep-alive the connection has earned (full
// after its first pull, gossip or app; shrunken while it has only ever
// pushed). A budget expiry is counted as a keep-alive eviction.
func (t *TCP) serveConn(conn net.Conn) {
	if !t.reg.add(conn) {
		conn.Close()
		return
	}
	defer func() {
		conn.Close()
		t.reg.remove(conn)
	}()
	// Frames are read, decoded and answered through these reusable
	// buffers, so a steady gossip stream costs no per-frame allocations.
	var cs connScratch
	first, pulled := true, false
	for {
		_ = conn.SetDeadline(time.Now().Add(t.limits.load().budget(first, pulled)))
		frame, err := readFrameInto(conn, cs.readBuf[:0])
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				t.stats.kaEvictions.Add(1)
			} else if errors.Is(err, errFrameTooLarge) {
				t.stats.dropped.Add(1)
			}
			return
		}
		cs.readBuf = frame
		first = false
		t.stats.noteRead(len(frame) + frameHeaderSize)
		keep, didPull := t.handleFrame(conn, frame, &cs)
		pulled = pulled || didPull
		if !keep {
			return
		}
	}
}

// handleFrame answers one frame of either family. keep reports whether
// the stream is still in sync (false means the connection must be torn
// down); pulled reports whether the frame pulled a reply, which upgrades
// the connection's keep-alive budget.
func (t *TCP) handleFrame(conn net.Conn, frame []byte, cs *connScratch) (keep, pulled bool) {
	var in inbound
	if err := in.decode(frame, &cs.dec); err != nil {
		t.stats.dropped.Add(1)
		return false, false // a corrupt stream cannot be resynchronised
	}
	pulled = in.wantReply()
	// Reserve the reply's length prefix; keeping the reservation keeps a
	// push-only stream allocation-free too.
	cs.outBuf = append(cs.outBuf[:0], 0, 0, 0, 0)
	out, err := in.answer(cs.outBuf, t.handler, t.apps.load(), &t.stats)
	if err != nil {
		return false, pulled
	}
	if out == nil {
		return true, pulled
	}
	binary.BigEndian.PutUint32(out, uint32(len(out)-frameHeaderSize))
	cs.outBuf = out
	if _, err := conn.Write(out); err != nil {
		return false, pulled
	}
	t.stats.noteWrite(len(out))
	return true, pulled
}

// connRegistry tracks the connections a listener is currently serving so
// Close can unblock handlers parked in keep-alive reads; without it a
// shutdown would wait out every peer's idle timer.
type connRegistry struct {
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

func newConnRegistry() *connRegistry {
	return &connRegistry{conns: make(map[net.Conn]struct{})}
}

// add registers conn, reporting false when the registry already shut down
// (the caller must close the connection instead of serving it).
func (r *connRegistry) add(conn net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.conns[conn] = struct{}{}
	return true
}

func (r *connRegistry) remove(conn net.Conn) {
	r.mu.Lock()
	delete(r.conns, conn)
	r.mu.Unlock()
}

// closeAll marks the registry closed and closes every tracked connection.
func (r *connRegistry) closeAll() {
	r.mu.Lock()
	r.closed = true
	conns := make([]net.Conn, 0, len(r.conns))
	for conn := range r.conns {
		conns = append(conns, conn)
	}
	r.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
}

// frameHeaderSize is the length prefix preceding every TCP frame.
const frameHeaderSize = 4

// errFrameTooLarge marks a length prefix beyond MaxFrameSize so callers
// can count the discarded frame in Stats.DatagramsDropped.
var errFrameTooLarge = errors.New("transport: frame exceeds size limit")

// readFrameInto reads one length-prefixed frame into buf (truncated
// first, grown only when the frame exceeds its capacity), rejecting
// oversized payloads. The returned slice aliases buf's backing array
// whenever it fits.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", errFrameTooLarge, n)
	}
	var payload []byte
	if uint32(cap(buf)) >= n {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
