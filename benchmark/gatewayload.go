package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"peersampling/internal/gateway"
)

const (
	gatewayNodes   = 32
	gatewayRefresh = 100 * time.Millisecond
	gossipEvery    = time.Millisecond // background gossip: one Tick per millisecond, round-robin
	spoofedClients = 1024
)

// sampleSizes is the n each driver cycles through: 1 and 8 are served
// from bodies pre-encoded at refresh time, 32 is assembled per request.
var sampleSizes = [3]int{1, 8, 32}

// gatewayLoad is the gateway_http workload: a gossiping fleet, a gateway
// over its first node, and one keep-alive HTTP connection per driver.
type gatewayLoad struct {
	cfg     runConfig
	fleet   *fleet
	gw      *gateway.Gateway
	clients []string // the spoofed X-Forwarded-For pool
	conns   []*httpConn

	stopGossip chan struct{}
	stopOnce   sync.Once
	gossipDone sync.WaitGroup
	gossiped   atomic.Int64   // background ticks issued so far
	httpBufs   []*spanBuf     // one per driver; nil when untraced
	sampler    *tracedSampler // nil when untraced

	edges  []gatewayEdge
	window time.Duration // length of the latest measured window
}

// gatewayEdge is what the workload records at each edge of a window.
type gatewayEdge struct {
	requests, rateLimited, unavailable, refreshes uint64
	gossiped                                      int64
}

// httpConn is one driver's connection and its per-request state.
type httpConn struct {
	conn net.Conn
	br   *bufio.Reader
	out  []byte
	body []byte
	rng  *rand.Rand
	seen [gatewayNodes]bool

	freshnessMs int64 // sum over timed replies of now − refreshed_unix_ms
	replies     int64
	lastAgeMs   int64 // that difference on the latest timed reply
}

func buildGatewayLoad(cfg runConfig, tr *tracer) (instance, error) {
	f, err := buildFleet("tcp-pooled", gatewayNodes, 1, cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	g := &gatewayLoad{cfg: cfg, fleet: f, stopGossip: make(chan struct{})}
	// Fill the views before the gateway takes its first sample.
	for i := range 20 * gatewayNodes {
		g.fleet.tickOp(0, i)
	}
	var sampler gateway.Sampler = f.nodes[0]
	if tr != nil {
		g.sampler = &tracedSampler{inner: sampler, buf: tr.newBuf()}
		sampler = g.sampler
	}
	g.gw, err = gateway.New("127.0.0.1:0", sampler, gateway.Config{
		Refresh:          gatewayRefresh,
		TrustProxyHeader: true,
		// High enough that no spoofed client is ever refused.
		RateRPS: 1e6,
		Burst:   1_000_000,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x6A7E))
	for range spoofedClients {
		g.clients = append(g.clients, fmt.Sprintf("10.%d.%d.%d", rng.IntN(256), rng.IntN(256), 1+rng.IntN(254)))
	}
	for w := range cfg.d {
		conn, err := net.Dial("tcp", g.gw.Addr())
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, &httpConn{
			conn: conn,
			br:   bufio.NewReader(conn),
			rng:  rand.New(rand.NewPCG(cfg.seed, uint64(w))),
		})
		if tr != nil {
			g.httpBufs = append(g.httpBufs, tr.newBuf())
		}
	}
	g.gossipDone.Add(1)
	go g.gossip()
	return g, nil
}

// gossip keeps the fleet exchanging at a fixed rate behind the gateway.
// It ticks as many nodes as are due, so a late wake-up does not lower the
// rate.
func (g *gatewayLoad) gossip() {
	defer g.gossipDone.Done()
	ticker := time.NewTicker(gossipEvery)
	defer ticker.Stop()
	began := time.Now()
	for i := 0; ; {
		select {
		case <-g.stopGossip:
			return
		case <-ticker.C:
		}
		for due := int(time.Since(began) / gossipEvery); i < due; i++ {
			g.fleet.tickOp(0, i)
		}
		g.gossiped.Store(int64(i))
	}
}

// quiesce stops the background gossip and the refresh loop's tracing, so
// that nothing records spans once the window's are being read. The
// gateway itself keeps serving and refreshing.
func (g *gatewayLoad) quiesce() {
	g.stopOnce.Do(func() { close(g.stopGossip) })
	g.gossipDone.Wait()
	if g.sampler != nil {
		g.sampler.detach()
	}
}

func (g *gatewayLoad) close() {
	g.quiesce()
	for _, c := range g.conns {
		_ = c.conn.Close() // shutting down: nothing to do about a close error
	}
	if g.gw != nil {
		_ = g.gw.Close()
	}
	g.fleet.close()
}

// op is one GET /v1/sample. It fails on any error, any status but 200, a
// body that is not the documented shape, a count that is not what n and
// the view size imply, and a duplicate or unknown peer.
func (g *gatewayLoad) op(w, i int) bool {
	c := g.conns[w]
	n := sampleSizes[i%len(sampleSizes)]
	traced := g.httpBufs != nil
	var root int32
	if traced {
		root = g.httpBufs[w].begin(spHTTP, n, -1)
	}
	err := c.get(n, g.clients[c.rng.IntN(len(g.clients))], g.fleet.index, traced)
	if traced {
		g.httpBufs[w].end(root)
	}
	if err != nil {
		// The stream may be out of step; a fresh connection keeps one
		// failure from becoming many. The op stays failed.
		_ = c.conn.Close()
		if conn, derr := net.Dial("tcp", g.gw.Addr()); derr == nil {
			c.conn, c.br = conn, bufio.NewReader(conn)
		}
		return false
	}
	return true
}

var (
	statusOK       = []byte("HTTP/1.1 200 ")
	contentLength  = []byte("Content-Length: ")
	bodyPeers      = []byte(`{"peers":[`)
	bodyCount      = []byte(`,"count":`)
	bodyRefreshed  = []byte(`,"refreshed_unix_ms":`)
	bodyEnd        = []byte("}\n")
	errBadResponse = errors.New("response is not the documented shape")
)

// get issues one request for n peers as client and validates the reply.
func (c *httpConn) get(n int, client string, known map[string]int32, timed bool) error {
	c.out = append(c.out[:0], "GET /v1/sample?n="...)
	c.out = strconv.AppendInt(c.out, int64(n), 10)
	c.out = append(c.out, " HTTP/1.1\r\nHost: bench\r\nX-Forwarded-For: "...)
	c.out = append(c.out, client...)
	c.out = append(c.out, "\r\n\r\n"...)
	if _, err := c.conn.Write(c.out); err != nil {
		return err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(line, statusOK) {
		return fmt.Errorf("status %q", bytes.TrimSpace(line))
	}
	length := -1
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := bytes.CutPrefix(line, contentLength); ok {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return err
			}
		}
	}
	if length < 0 {
		return errBadResponse
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return err
	}
	return c.validate(n, known, timed)
}

// validate parses {"peers":["a",…],"count":K,"refreshed_unix_ms":T}\n by
// hand — the shape is fixed and the caller is part of the measured
// process, so it should cost as little as a real client can.
func (c *httpConn) validate(n int, known map[string]int32, timed bool) error {
	rest, ok := bytes.CutPrefix(c.body, bodyPeers)
	if !ok {
		return errBadResponse
	}
	clear(c.seen[:])
	peers := 0
	for len(rest) > 0 && rest[0] == '"' {
		end := bytes.IndexByte(rest[1:], '"')
		if end < 0 {
			return errBadResponse
		}
		idx, ok := known[string(rest[1:1+end])]
		if !ok {
			return fmt.Errorf("unknown peer %q", rest[1:1+end])
		}
		if c.seen[idx] {
			return fmt.Errorf("duplicate peer %q", rest[1:1+end])
		}
		c.seen[idx] = true
		peers++
		rest = rest[end+2:]
		if len(rest) > 0 && rest[0] == ',' {
			rest = rest[1:]
		}
	}
	if rest, ok = bytes.CutPrefix(rest, []byte("]")); !ok {
		return errBadResponse
	}
	if rest, ok = bytes.CutPrefix(rest, bodyCount); !ok {
		return errBadResponse
	}
	count, rest, ok := cutInt(rest)
	if !ok {
		return errBadResponse
	}
	if rest, ok = bytes.CutPrefix(rest, bodyRefreshed); !ok {
		return errBadResponse
	}
	refreshed, rest, ok := cutInt(rest)
	if !ok || !bytes.Equal(rest, bodyEnd) {
		return errBadResponse
	}
	// The gateway serves min(n, peers it holds). It holds what a refresh
	// drew from its node's view: up to c peers, one or two fewer when the
	// draw (with replacement) misses some, a few more when gossip replaces
	// view entries while the refresh is drawing.
	if lo := min(n, viewSize-2); int(count) != peers || peers > n || peers < lo {
		return fmt.Errorf("n=%d: count %d, %d peers in body, want %d to %d", n, count, peers, lo, n)
	}
	if timed {
		c.lastAgeMs = time.Now().UnixMilli() - refreshed
		c.freshnessMs += c.lastAgeMs
		c.replies++
	}
	return nil
}

// cutInt parses a leading non-negative decimal integer.
func cutInt(b []byte) (v int64, rest []byte, ok bool) {
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	return v, b[i:], i > 0
}
