package main

import (
	"fmt"
	"slices"
	"time"

	"peersampling/internal/transport"
)

// runConfig is what one run of one workload is given. Everything a
// workload generates — node seeds, bootstrap contacts, the simulator's
// seed, the spoofed client pool — derives from seed.
type runConfig struct {
	seed   uint64
	window time.Duration
	d      int // closed-loop callers
}

// measured is the outcome of one warm-up plus window on an instance.
type measured struct {
	endToEnd
	from, to       time.Time // the window
	mem            memDelta  // allocator and collector counters over it
	goroutinesPeak int
}

// instance is one set-up of a workload.
type instance interface {
	// measure runs the warm-up and one measured window.
	measure(window time.Duration) measured
	// check verifies the program's outputs and returns what is wrong.
	check() []string
	// layers fills in the per-layer metrics of a traced window from its
	// span aggregates, the instance's counters and its own probes, and
	// returns the ledger line of a socket workload ("" otherwise).
	layers(m metrics, agg [numSpanNames]spanAgg, traced measured) string
	close()
}

// builder sets a workload up; with a tracer, the instance records spans.
type builder func(cfg runConfig, tr *tracer) (instance, error)

// builders sets each workload of manifest.go up.
var builders = map[string]builder{
	"sim_sharded":    buildSimSharded,
	"paper_dynamics": buildPaperDynamics,
	"fleet_fabric":   tickFleetBuilder("mem"),
	"fleet_pooled":   tickFleetBuilder("tcp-pooled"),
	"fleet_udp":      tickFleetBuilder("udp"),
	"app_pooled":     buildAppFleet,
	"gateway_http":   buildGatewayLoad,
	"fleet_tcp":      tickFleetBuilder("tcp"),
}

// sumMeasure runs a sliced closed loop on op and packages the result.
func sumMeasure(d int, window time.Duration, op opFunc, edge func()) (measured, *loadRun) {
	run := runClosedLoop(d, window, op, edge)
	last := len(run.marks) - 1
	return measured{
		endToEnd:       run.summarize(),
		from:           run.began.Add(run.marks[0].at),
		to:             run.began.Add(run.marks[last].at),
		mem:            run.mem[1].since(run.mem[0]),
		goroutinesPeak: run.goroutinesPeak,
	}, run
}

// tickFleet is a fleet_* workload: one op is one Tick.
type tickFleet struct {
	*fleet
	cfg    runConfig
	issued int // Ticks over every window so far
}

func tickFleetBuilder(backend string) builder {
	return func(cfg runConfig, tr *tracer) (instance, error) {
		f, err := buildFleet(backend, fleetNodes, cfg.d, cfg.seed, tr)
		if err != nil {
			return nil, err
		}
		return &tickFleet{fleet: f, cfg: cfg}, nil
	}
}

func (t *tickFleet) measure(window time.Duration) measured {
	t.edges = t.edges[:0]
	m, run := sumMeasure(t.cfg.d, window, t.tickOp, t.edge)
	t.issued += run.issued()
	return m
}

func (t *tickFleet) check() []string {
	bad := append(t.checkViews(), t.checkExchanges(t.issued)...)
	if n := t.addrNotAvail.Load(); n > 0 {
		bad = append(bad, fmt.Sprintf("%d exchanges ran out of ephemeral ports (EADDRNOTAVAIL); each is a failed op, none was retried", n))
	}
	return bad
}

func (t *tickFleet) layers(m metrics, agg [numSpanNames]spanAgg, traced measured) string {
	probeGetPeer(t.nodes[0], m)
	return t.gossipLayers(m, agg, float64(traced.attempted))
}

// gossipLayers fills in the runtime and transport layers from the spans of
// gossip exchanges and the wire counters, over ops exchanges.
func (f *fleet) gossipLayers(m metrics, agg [numSpanNames]spanAgg, ops float64) string {
	tick, exch, handler := agg[spTick], agg[spExchange], agg[spHandler]
	m["runtime.tick_us"] = tick.meanDurUs()
	m["runtime.active_self_us"] = tick.meanSelfUs()
	m["runtime.handler_us"] = handler.meanDurUs()
	m["runtime.handler_overhead_us"] = handler.meanDurUs() - m["core.handle_request_ns"]/1e3
	f.wireLayers(m, exch, 2*m["codec.request_roundtrip_ns"]/1e3, ops)
	first, last := f.edges[0], f.edges[len(f.edges)-1]
	m["runtime.failed_exchanges"] = float64(last.failures - first.failures)
	m["trace.ledger_residual_pct"] = ledgerResidualPct(tick, exch, handler)
	return ledgerLine(tick, exch, handler)
}

// wireLayers fills in transport.<backend>.* from the spans around the
// transport call and the wire counters; codecUs is what the codec probe
// says the call's frames cost to encode and decode.
func (f *fleet) wireLayers(m metrics, call spanAgg, codecUs, ops float64) {
	p := "transport." + backendKey[f.backend] + "."
	m[p+"exchange_us"] = call.meanDurUs()
	m[p+"wire_self_us"] = call.meanSelfUs()
	if f.backend == "mem" {
		m[p+"io_self_us"] = call.meanSelfUs() // no codec, no wire counters
		return
	}
	m[p+"io_self_us"] = call.meanSelfUs() - codecUs
	first, last := f.edges[0].wire, f.edges[len(f.edges)-1].wire
	per := func(a, b uint64) float64 { return float64(b-a) / ops }
	m[p+"dials_per_op"] = per(first.Dials, last.Dials)
	m[p+"reuses_per_op"] = per(first.Reuses, last.Reuses)
	m[p+"bytes_per_op"] = per(first.BytesOut+first.BytesIn, last.BytesOut+last.BytesIn)
	m[p+"frames_per_op"] = per(first.FramesOut+first.FramesIn, last.FramesOut+last.FramesIn)
	m[p+"drops_per_op"] = per(drops(first), drops(last))
}

func drops(s transport.Stats) uint64 {
	return s.DatagramsDropped + s.AcceptRejects + s.KeepAliveEvictions
}

// ledgerResidualPct is the share of the root spans' time that the three
// parts of the ledger — the root's self time, the transport call's self
// time and the remote handler — fail to account for.
func ledgerResidualPct(root, call, handler spanAgg) float64 {
	if root.dur == 0 {
		return 0
	}
	residual := root.dur - root.self - call.self - handler.dur
	if residual < 0 {
		residual = -residual
	}
	return 100 * float64(residual) / float64(root.dur)
}

// ledgerLine prints the three parts as shares of the root span, so where
// the time goes is one line.
func ledgerLine(root, call, handler spanAgg) string {
	share := func(ns int64) float64 { return 100 * float64(ns) / float64(max(root.dur, 1)) }
	return fmt.Sprintf("root %.2f us = caller self %.1f%% + transport self %.1f%% + remote handler %.1f%% (residual %.3f%%)",
		root.meanDurUs(), share(root.self), share(call.self), share(handler.dur), ledgerResidualPct(root, call, handler))
}

// appFleet is the app_pooled workload: one op is GetPeer plus one app
// request and its echoed reply.
type appFleet struct {
	*fleet
	cfg    runConfig
	issued int
	failed int
}

func buildAppFleet(cfg runConfig, tr *tracer) (instance, error) {
	f, err := buildFleet("tcp-pooled", fleetNodes, cfg.d, cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	f.serveEcho(cfg.seed)
	return &appFleet{fleet: f, cfg: cfg}, nil
}

func (a *appFleet) measure(window time.Duration) measured {
	a.edges = a.edges[:0]
	m, run := sumMeasure(a.cfg.d, window, a.appOp, a.edge)
	a.issued += run.issued()
	for _, log := range run.logs {
		for _, ns := range log.ns {
			if ns == failedOp {
				a.failed++
			}
		}
	}
	return m
}

// check verifies the views and that every request the drivers count as
// answered was served by some node's handler exactly once.
func (a *appFleet) check() []string {
	bad := a.checkViews()
	var served uint64
	for i := range a.served {
		served += a.served[i].Load()
	}
	if got, want := served, uint64(a.issued-a.failed); got < want || got > uint64(a.issued) {
		bad = append(bad, fmt.Sprintf("handlers served %d requests, drivers had %d answered of %d sent", got, want, a.issued))
	}
	return bad
}

func (a *appFleet) layers(m metrics, agg [numSpanNames]spanAgg, traced measured) string {
	send, exch, handler := agg[spAppSend], agg[spAppExchange], agg[spAppHandler]
	m["app.send_us"] = send.meanDurUs()
	m["app.wire_self_us"] = exch.meanSelfUs()
	m["app.handler_us"] = handler.meanDurUs()
	a.wireLayers(m, exch, 2*m["codec.app_roundtrip_ns"]/1e3, float64(traced.attempted))
	m["trace.ledger_residual_pct"] = ledgerResidualPct(send, exch, handler)
	probeGetPeer(a.nodes[0], m)
	return ledgerLine(send, exch, handler)
}

func (g *gatewayLoad) measure(window time.Duration) measured {
	g.edges = g.edges[:0]
	g.fleet.edges = g.fleet.edges[:0]
	m, _ := sumMeasure(g.cfg.d, window, g.op, g.edge)
	g.quiesce()
	g.window = m.to.Sub(m.from)
	return m
}

func (g *gatewayLoad) edge() {
	g.fleet.edge()
	s := g.gw.Snapshot(0).Gateway
	g.edges = append(g.edges, gatewayEdge{s.Requests, s.RateLimited, s.Unavailable, s.Refreshes, g.gossiped.Load()})
}

// check verifies the fleet's views, that the background gossip kept its
// rate and never failed, and that the gateway's sample is fresh.
func (g *gatewayLoad) check() []string {
	bad := g.fleet.checkViews()
	first, last := g.fleet.edges[0], g.fleet.edges[len(g.fleet.edges)-1]
	if last.failures != first.failures {
		bad = append(bad, fmt.Sprintf("%d background exchanges failed", last.failures-first.failures))
	}
	want := float64(g.window / gossipEvery)
	if got := float64(g.edges[len(g.edges)-1].gossiped - g.edges[0].gossiped); got < 0.9*want || got > 1.1*want {
		bad = append(bad, fmt.Sprintf("background gossip ran %v ticks in the window, want %v", got, want))
	}
	if err := g.conns[0].get(1, g.clients[0], g.fleet.index, true); err != nil {
		bad = append(bad, "final request: "+err.Error())
	} else if age := time.Duration(g.conns[0].lastAgeMs) * time.Millisecond; age > 2*gatewayRefresh {
		bad = append(bad, fmt.Sprintf("sample is %v old, refresh interval is %v", age, gatewayRefresh))
	}
	return bad
}

func (g *gatewayLoad) layers(m metrics, agg [numSpanNames]spanAgg, traced measured) string {
	tr := g.fleet.tr
	rttByClass(tr, int64(traced.from.Sub(tr.epoch)), int64(traced.to.Sub(tr.epoch)), m)
	first, last := g.edges[0], g.edges[len(g.edges)-1]
	ledger := g.fleet.gossipLayers(m, agg, float64(last.gossiped-first.gossiped))
	m["runtime.getpeer_ns"] = agg[spGetPeer].meanDurUs() * 1e3 // contended with gossip, unlike the idle probe
	m["gateway.requests"] = float64(last.requests - first.requests)
	m["gateway.rate_limited"] = float64(last.rateLimited - first.rateLimited)
	m["gateway.unavailable"] = float64(last.unavailable - first.unavailable)
	m["gateway.refreshes"] = float64(last.refreshes - first.refreshes)
	var fresh, replies int64
	for _, c := range g.conns {
		fresh, replies = fresh+c.freshnessMs, replies+c.replies
	}
	if replies > 0 {
		m["gateway.freshness_ms"] = float64(fresh) / float64(replies)
	}
	return "background gossip: " + ledger
}

// rttByClass returns the median client-side latency per sample size, from
// the window's spans: the span's node field carries n.
func rttByClass(t *tracer, from, to int64, m metrics) {
	byN := map[int16][]int64{}
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if s.name == spHTTP && s.end != 0 && s.start >= from && s.start < to {
				byN[s.node] = append(byN[s.node], s.end-s.start)
			}
		}
	}
	for n, ns := range byN {
		slices.Sort(ns)
		m[fmt.Sprintf("gateway.rtt_n%d_us", n)] = float64(percentile(ns, 0.5)) / 1e3
	}
}
