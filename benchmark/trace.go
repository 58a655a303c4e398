package main

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"peersampling/internal/gateway"
	"peersampling/internal/transport"
)

// Span names. The layer a span belongs to is the part before the dot, and
// is one of the repo's module names.
type spanName uint8

const (
	spTick        spanName = iota // driver, around runtime.Node.Tick
	spExchange                    // wrapper, around Transport.Exchange
	spHandler                     // wrapped Handler on the remote node
	spAppSend                     // driver, around GetPeer+SendApp
	spAppExchange                 // wrapper, around AppCarrier.ExchangeApp
	spAppHandler                  // wrapped AppHandler on the remote node
	spHTTP                        // driver, around one gateway request
	spGetPeer                     // wrapped gateway.Sampler, refresh loop
	spSimCycle                    // driver, around RunCycleSharded
	spPaperOp                     // driver, around cycle+observation
	spSeqCycle                    // driver, around RunCycle
	spObserve                     // driver, around Observe
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"runtime.tick", "transport.exchange", "runtime.handler",
	"app.send", "transport.exchange_app", "app.handler",
	"gateway.request", "runtime.getpeer",
	"sim.cycle", "paper.op", "sim.seq_cycle", "graph.observe",
}

// span is one timed interval. parent indexes the same buffer (-1 for a
// root); a root and its descendants are one trace. Times are nanoseconds
// since the tracer's epoch. The struct holds no pointers, so a buffer of
// a million spans costs the garbage collector nothing to scan.
type span struct {
	start, end int64
	parent     int32
	node       int16
	name       spanName
}

// spanBuf is the in-memory span store of one recording goroutine. It is
// not safe for concurrent use: every goroutine that records owns one.
type spanBuf struct {
	epoch time.Time
	spans []span
}

func (b *spanBuf) now() int64 { return int64(time.Since(b.epoch)) }

// begin opens a span and returns its index for end and for children.
func (b *spanBuf) begin(name spanName, node int, parent int32) int32 {
	b.spans = append(b.spans, span{start: b.now(), parent: parent, node: int16(node), name: name})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) end(id int32) { b.spans[id].end = b.now() }

// nodeTrace is the per-node rendezvous between the three places one
// exchange is observed. The goroutine driving the node owns buf and root;
// the remote node's serve goroutine reports the handler interval through
// the atomics, keyed by the initiator's address — unique because a node
// has at most one exchange in flight.
type nodeTrace struct {
	idx  int
	buf  *spanBuf
	root int32 // span the next transport call is a child of

	hStart, hEnd atomic.Int64
	hNode        atomic.Int32
}

// tracer records spans from the benchmark's own files at the seams the
// program already has: the transport.Factory handed to runtime.New, the
// Handler that factory receives, and the gateway's Sampler.
type tracer struct {
	epoch  time.Time
	bufs   []*spanBuf
	nodes  []*nodeTrace
	byAddr atomic.Pointer[map[string]*nodeTrace]
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newBuf returns a span buffer for one recording goroutine.
func (t *tracer) newBuf() *spanBuf {
	b := &spanBuf{epoch: t.epoch, spans: make([]span, 0, 1<<16)}
	t.bufs = append(t.bufs, b)
	return b
}

// bind publishes the address → node table once every endpoint exists
// (addresses are only known after the listeners are up), and assigns each
// node the buffer of the goroutine that will drive it.
func (t *tracer) bind(addrs []string, bufOf func(node int) *spanBuf) {
	m := make(map[string]*nodeTrace, len(addrs))
	for i, a := range addrs {
		t.nodes[i].buf = bufOf(i)
		m[a] = t.nodes[i]
	}
	t.byAddr.Store(&m)
}

// initiator returns the trace state of the node whose address is from.
func (t *tracer) initiator(from string) *nodeTrace {
	if m := t.byAddr.Load(); m != nil {
		return (*m)[from]
	}
	return nil
}

// wrap returns a Factory that builds inner's endpoint with both seams
// traced. Endpoints are numbered in construction order.
func (t *tracer) wrap(inner transport.Factory) transport.Factory {
	return func(h transport.Handler) (transport.Transport, error) {
		nt := &nodeTrace{idx: len(t.nodes)}
		traced := func(req transport.Request) (transport.Response, bool) {
			start := int64(time.Since(t.epoch))
			resp, ok := h(req)
			end := int64(time.Since(t.epoch))
			if it := t.initiator(req.From); it != nil {
				it.report(nt.idx, start, end)
			}
			return resp, ok
		}
		tr, err := inner(traced)
		if err != nil {
			return nil, err
		}
		t.nodes = append(t.nodes, nt)
		return wrapTransport(tr, t, nt), nil
	}
}

func (nt *nodeTrace) report(node int, start, end int64) {
	nt.hNode.Store(int32(node))
	nt.hEnd.Store(end)
	nt.hStart.Store(start)
}

// beginCall opens the span of one outbound transport call as a child of
// the node's current root.
func (nt *nodeTrace) beginCall(name spanName) int32 {
	nt.hStart.Store(0)
	return nt.buf.begin(name, nt.idx, nt.root)
}

// endCall closes the call's span and attaches the remote handler interval
// reported while it was open.
func (nt *nodeTrace) endCall(id int32, handler spanName) {
	nt.buf.end(id)
	if hs := nt.hStart.Load(); hs != 0 {
		nt.buf.spans = append(nt.buf.spans, span{
			start: hs, end: nt.hEnd.Load(), parent: id,
			node: int16(nt.hNode.Load()), name: handler,
		})
	}
}

// tracedTransport wraps a Transport. The runtime discovers a transport's
// optional capabilities by type assertion, so the wrapper must expose
// exactly the ones the wrapped endpoint has: wrapTransport picks the
// variant. Every backend carries app payloads; the three socket backends
// also report wire counters and accept new limits, the fabric does not.
type tracedTransport struct {
	transport.Transport
	t  *tracer
	nt *nodeTrace
}

type tracedApp struct {
	tracedTransport
	app transport.AppCarrier
}

type tracedWire struct {
	tracedApp
	transport.StatsReporter
	transport.LimitsUpdater
}

func wrapTransport(tr transport.Transport, t *tracer, nt *nodeTrace) transport.Transport {
	base := tracedTransport{Transport: tr, t: t, nt: nt}
	app, isApp := tr.(transport.AppCarrier)
	if !isApp {
		return &base
	}
	withApp := tracedApp{tracedTransport: base, app: app}
	stats, isStats := tr.(transport.StatsReporter)
	limits, isLimits := tr.(transport.LimitsUpdater)
	if !isStats || !isLimits {
		return &withApp
	}
	return &tracedWire{tracedApp: withApp, StatsReporter: stats, LimitsUpdater: limits}
}

func (tt *tracedTransport) Exchange(ctx context.Context, addr string, req transport.Request) (transport.Response, bool, error) {
	id := tt.nt.beginCall(spExchange)
	resp, ok, err := tt.Transport.Exchange(ctx, addr, req)
	tt.nt.endCall(id, spHandler)
	return resp, ok, err
}

func (ta *tracedApp) ExchangeApp(ctx context.Context, addr string, msg transport.AppMessage) (transport.AppMessage, bool, error) {
	id := ta.nt.beginCall(spAppExchange)
	reply, ok, err := ta.app.ExchangeApp(ctx, addr, msg)
	ta.nt.endCall(id, spAppHandler)
	return reply, ok, err
}

func (ta *tracedApp) SetAppHandler(h transport.AppHandler) {
	if h == nil {
		ta.app.SetAppHandler(nil)
		return
	}
	ta.app.SetAppHandler(func(msg transport.AppMessage) (transport.AppMessage, bool) {
		start := int64(time.Since(ta.t.epoch))
		reply, ok := h(msg)
		end := int64(time.Since(ta.t.epoch))
		if it := ta.t.initiator(msg.From); it != nil {
			it.report(ta.nt.idx, start, end)
		}
		return reply, ok
	})
}

// tracedSampler times the gateway refresh loop's GetPeer calls: the one
// place the gateway takes Node.mu, in contention with gossip. The refresh
// loop outlives the window, so the sampler can be detached: after detach
// returns, nothing writes to its buffer.
type tracedSampler struct {
	inner gateway.Sampler
	mu    sync.Mutex // serialises detach with a call in flight; the refresh loop is the only caller
	buf   *spanBuf   // nil once detached
}

func (s *tracedSampler) GetPeer() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.buf == nil {
		return s.inner.GetPeer()
	}
	id := s.buf.begin(spGetPeer, 0, -1)
	peer, err := s.inner.GetPeer()
	s.buf.end(id)
	return peer, err
}

func (s *tracedSampler) detach() {
	s.mu.Lock()
	s.buf = nil
	s.mu.Unlock()
}

// spanAgg is the per-name aggregate of a set of spans: how many, their
// total duration and their total self time, in nanoseconds.
type spanAgg struct {
	count     int
	dur, self int64
}

func (a spanAgg) meanDurUs() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.dur) / float64(a.count) / 1e3
}

func (a spanAgg) meanSelfUs() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.self) / float64(a.count) / 1e3
}

// selfTimes returns, for every span of one buffer, its duration minus the
// part of its interval that its child spans cover. Children may overlap
// each other or stick out of the parent; only the union of their
// intervals clipped to the parent is subtracted.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	firstChild := make([]int32, len(spans))
	nextSibling := make([]int32, len(spans))
	for i := range spans {
		firstChild[i] = -1
	}
	for i := len(spans) - 1; i >= 0; i-- {
		if p := spans[i].parent; p >= 0 {
			nextSibling[i] = firstChild[p]
			firstChild[p] = int32(i)
		}
	}
	var kids [][2]int64
	for i, s := range spans {
		self[i] = s.end - s.start
		kids = kids[:0]
		for c := firstChild[i]; c >= 0; c = nextSibling[c] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				kids = append(kids, [2]int64{lo, hi})
			}
		}
		if len(kids) > 1 {
			slices.SortFunc(kids, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		}
		covered := s.start
		for _, k := range kids {
			if lo := max(k[0], covered); k[1] > lo {
				self[i] -= k[1] - lo
				covered = k[1]
			}
		}
	}
	return self
}

// aggregate folds every span that started inside [from, to) into per-name
// totals.
func (t *tracer) aggregate(from, to int64) [numSpanNames]spanAgg {
	var out [numSpanNames]spanAgg
	for _, b := range t.bufs {
		self := selfTimes(b.spans)
		for i, s := range b.spans {
			if s.end == 0 || !inWindow(b.spans, i, from, to) {
				continue
			}
			a := &out[s.name]
			a.count++
			a.dur += s.end - s.start
			a.self += self[i]
		}
	}
	return out
}

// inWindow reports whether span i's root started inside [from, to), so a
// trace is counted whole or not at all.
func inWindow(spans []span, i int, from, to int64) bool {
	for spans[i].parent >= 0 {
		i = int(spans[i].parent)
	}
	return spans[i].start >= from && spans[i].start < to
}

// spanCount is the number of spans recorded so far.
func (t *tracer) spanCount() int {
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

// traceSpan is the file form of a span; trace is the id of its root.
type traceSpan struct {
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	Node    int    `json:"node"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// export returns the spans of the first limit traces of every buffer that
// started inside [from, to), in file form — the aggregate metrics use
// every span, the file is a bounded sample to read single exchanges from.
func (t *tracer) export(from, to int64, limit int) []traceSpan {
	var out []traceSpan
	id := func(b, i int) string { return strconv.Itoa(b) + "." + strconv.Itoa(i) }
	for bi, b := range t.bufs {
		roots := 0
		for i, s := range b.spans {
			if s.end == 0 || !inWindow(b.spans, i, from, to) {
				continue
			}
			if s.parent < 0 {
				if roots++; roots > limit {
					break
				}
			}
			root := i
			for b.spans[root].parent >= 0 {
				root = int(b.spans[root].parent)
			}
			ts := traceSpan{ID: id(bi, i), Trace: id(bi, root), Name: spanNames[s.name],
				Node: int(s.node), StartNS: s.start, EndNS: s.end}
			if s.parent >= 0 {
				ts.Parent = id(bi, int(s.parent))
			}
			out = append(out, ts)
		}
	}
	return out
}
