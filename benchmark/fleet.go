package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"time"

	"peersampling/internal/core"
	psruntime "peersampling/internal/runtime"
	"peersampling/internal/transport"
)

const (
	viewSize   = 30 // the paper's c
	fleetNodes = 64
	appPayload = 256
	appTopic   = "bench"
)

// backendKey maps a transport backend to the short name its per-layer
// metrics carry (transport.<key>.*).
var backendKey = map[string]string{"mem": "mem", "tcp-pooled": "pool", "tcp": "tcp", "udp": "udp"}

// fleet is a set of runtime nodes in this process, driven by Tick calls
// rather than by their period timers: the exchange path is the same, and the
// figure is the cost of an exchange, not the configured period.
type fleet struct {
	backend string
	nodes   []*psruntime.Node
	addrs   []string
	index   map[string]int32
	mine    [][]int // mine[w] = the nodes driver w owns: w, w+D, …
	tr      *tracer // nil on an untraced fleet

	errs         []atomic.Uint64 // OnError calls, per node
	addrNotAvail atomic.Uint64   // of which: out of ephemeral ports
	served       []atomic.Uint64 // app requests echoed, per node
	payloads     [][]byte        // app request buffer, per driver
	edges        []fleetEdge     // counters at the window's edges
}

// fleetEdge is what a fleet records at each edge of a measured window.
type fleetEdge struct {
	wire      transport.Stats
	exchanges uint64
	failures  uint64
}

// buildFleet starts n nodes on backend, each bootstrapped with c contacts
// drawn from seed, owned by d drivers. With a tracer, every endpoint is
// built through its wrapping factory and driver w records to bufs[w].
func buildFleet(backend string, n, d int, seed uint64, tr *tracer) (*fleet, error) {
	f := &fleet{
		backend: backend,
		index:   make(map[string]int32, n),
		mine:    make([][]int, d),
		tr:      tr,
		errs:    make([]atomic.Uint64, n),
		served:  make([]atomic.Uint64, n),
	}
	var factory transport.Factory
	if backend == "mem" {
		factory = transport.NewFabric().Factory("mem")
	} else {
		if err := preflightFiles(n); err != nil {
			return nil, err
		}
		var err error
		if factory, err = transport.NewFactory(backend, "127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		factory = tr.wrap(factory)
	}
	for i := range n {
		node, err := psruntime.New(psruntime.Config{
			Protocol: core.Newscast,
			ViewSize: viewSize,
			Seed:     seed<<16 + uint64(i) + 1,
			// A lost datagram would otherwise park a driver for the
			// default five seconds — longer than some windows.
			ExchangeTimeout: time.Second,
			OnError: func(err error) {
				f.errs[i].Add(1)
				if strings.Contains(err.Error(), "cannot assign requested address") {
					f.addrNotAvail.Add(1)
				}
			},
		}, factory)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		f.nodes = append(f.nodes, node)
		f.addrs = append(f.addrs, node.Addr())
		f.index[node.Addr()] = int32(i)
		f.mine[i%d] = append(f.mine[i%d], i)
	}
	rng := rand.New(rand.NewPCG(seed, 0xF1EE7))
	for i, node := range f.nodes {
		contacts := make([]string, 0, viewSize)
		for _, j := range rng.Perm(n) {
			if j != i && len(contacts) < viewSize {
				contacts = append(contacts, f.addrs[j])
			}
		}
		if err := node.Init(contacts); err != nil {
			f.close()
			return nil, err
		}
	}
	if tr != nil {
		bufs := make([]*spanBuf, d)
		for w := range bufs {
			bufs[w] = tr.newBuf()
		}
		tr.bind(f.addrs, func(node int) *spanBuf { return bufs[node%d] })
	}
	return f, nil
}

func (f *fleet) close() {
	for _, n := range f.nodes {
		_ = n.Close() // shutting down: nothing to do about a close error
	}
}

// node returns the i-th node in driver w's round-robin.
func (f *fleet) node(w, i int) int { return f.mine[w][i%len(f.mine[w])] }

// tick runs one exchange on node k; it failed if the node reported an
// error for it.
func (f *fleet) tick(k int) bool {
	before := f.errs[k].Load()
	f.nodes[k].Tick()
	return f.errs[k].Load() == before
}

// tickOp is the fleet_* operation.
func (f *fleet) tickOp(w, i int) bool {
	k := f.node(w, i)
	if f.tr == nil {
		return f.tick(k)
	}
	nt := f.tr.nodes[k]
	nt.root = nt.buf.begin(spTick, k, -1)
	ok := f.tick(k)
	nt.buf.end(nt.root)
	return ok
}

// serveEcho installs an echoing AppHandler on every node and gives each
// driver its request buffer.
func (f *fleet) serveEcho(seed uint64) {
	for i, n := range f.nodes {
		n.SetAppHandler(func(msg transport.AppMessage) (transport.AppMessage, bool) {
			f.served[i].Add(1)
			return transport.AppMessage{From: f.addrs[i], Topic: msg.Topic, Payload: msg.Payload}, true
		})
	}
	rng := rand.New(rand.NewPCG(seed, 0xA99))
	f.payloads = make([][]byte, len(f.mine))
	for w := range f.payloads {
		f.payloads[w] = make([]byte, appPayload)
		for i := range f.payloads[w] {
			f.payloads[w][i] = byte(rng.Uint32())
		}
	}
}

// send is one app request/reply from node k; the request carries i, so a
// reply that echoes another request is a failure.
func (f *fleet) send(w, k, i int) bool {
	peer, err := f.nodes[k].GetPeer()
	if err != nil {
		return false
	}
	payload := f.payloads[w]
	binary.LittleEndian.PutUint64(payload, uint64(i))
	reply, replied, err := f.nodes[k].SendApp(context.Background(), peer, appTopic, payload, true)
	return err == nil && replied && bytes.Equal(reply, payload)
}

// appOp is the app_pooled operation.
func (f *fleet) appOp(w, i int) bool {
	k := f.node(w, i)
	if f.tr == nil {
		return f.send(w, k, i)
	}
	nt := f.tr.nodes[k]
	nt.root = nt.buf.begin(spAppSend, k, -1)
	ok := f.send(w, k, i)
	nt.buf.end(nt.root)
	return ok
}

// edge records the fleet's counters; the runner calls it at the start and
// at the end of the measured window.
func (f *fleet) edge() {
	var e fleetEdge
	for _, n := range f.nodes {
		if s, ok := n.TransportStats(); ok {
			e.wire.Add(s)
		}
		_, ex, fail, _ := n.Stats()
		e.exchanges += ex
		e.failures += fail
	}
	f.edges = append(f.edges, e)
}

// views returns every node's view as node indexes; an address the fleet
// never had maps to -1.
func (f *fleet) views() [][]int32 {
	out := make([][]int32, len(f.nodes))
	for i, n := range f.nodes {
		for _, d := range n.View() {
			j, ok := f.index[d.Addr]
			if !ok {
				j = -1
			}
			out[i] = append(out[i], j)
		}
	}
	return out
}

// checkViews verifies the view invariants on every node, that every view
// is full, and that the union overlay is one component.
func (f *fleet) checkViews() []string {
	var bad []string
	views := f.views()
	for i, v := range views {
		exists := func(j int32) bool { return j >= 0 }
		if err := checkView(int32(i), v, viewSize, true, exists); err != nil {
			bad = append(bad, err.Error())
		}
	}
	if len(bad) > 0 {
		return bad // a view naming a node that never existed cannot be linked
	}
	if c := components(len(views), func(i int) []int32 { return views[i] }); c != 1 {
		bad = append(bad, fmt.Sprintf("overlay has %d components, want 1", c))
	}
	return bad
}

// checkExchanges verifies the nodes' own accounting against the drivers':
// every Tick the drivers issued is a completed or a failed exchange.
func (f *fleet) checkExchanges(issued int) []string {
	var exchanges, failures, reported uint64
	for i, n := range f.nodes {
		_, ex, fail, _ := n.Stats()
		exchanges += ex
		failures += fail
		reported += f.errs[i].Load()
	}
	var bad []string
	if exchanges+failures != uint64(issued) {
		bad = append(bad, fmt.Sprintf("nodes count %d exchanges + %d failures, drivers issued %d ticks", exchanges, failures, issued))
	}
	if failures != reported {
		bad = append(bad, fmt.Sprintf("nodes count %d failures, OnError saw %d", failures, reported))
	}
	return bad
}
