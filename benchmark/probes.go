package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"peersampling/internal/core"
	psruntime "peersampling/internal/runtime"
	"peersampling/internal/transport"
)

// The probes time the layers a span cannot split from outside: the core
// state machine and the codec run inside a Tick, between the seams the
// tracer can reach. Each probe drives the layer's public functions alone,
// on the inputs the fleets produce, for a fixed number of iterations.

type metrics map[string]float64

// timeLoop runs fn iters times and returns the mean nanoseconds and the
// mean heap allocations per call.
func timeLoop(iters int, fn func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	began := time.Now()
	for i := range iters {
		fn(i)
	}
	elapsed := time.Since(began)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(iters), float64(m1.Mallocs-m0.Mallocs) / float64(iters)
}

// probeAddr is a string address of the shape the socket fleets use.
func probeAddr(i int) string { return fmt.Sprintf("127.0.0.1:%d", 40000+i) }

// probeCore times the protocol state machine on 64 string-addressed
// Newscast nodes with c=30: what one exchange costs with no runtime, no
// transport and no simulator around it.
func probeCore(seed uint64, m metrics) error {
	const iters = 100_000
	nodes := make([]*core.Node[string], fleetNodes)
	index := make(map[string]int, fleetNodes)
	rng := rand.New(rand.NewPCG(seed, 0xC04E))
	for i := range nodes {
		n, err := core.NewNode(probeAddr(i), core.Newscast, viewSize, rand.New(rand.NewPCG(seed, uint64(i))))
		if err != nil {
			return err
		}
		nodes[i], index[probeAddr(i)] = n, i
	}
	for i, n := range nodes {
		var boot []core.Descriptor[string]
		for _, j := range rng.Perm(len(nodes))[:viewSize+1] {
			if j != i && len(boot) < viewSize {
				boot = append(boot, core.Descriptor[string]{Addr: probeAddr(j)})
			}
		}
		n.Bootstrap(boot)
	}
	exchange := func(i int) {
		a := nodes[i%len(nodes)]
		a.AgeView()
		peer, req, err := a.InitiateExchange()
		if err != nil {
			return
		}
		if resp, ok := nodes[index[peer]].HandleRequest(req); ok {
			a.HandleResponse(resp)
		}
	}
	for i := range 10 * len(nodes) {
		exchange(i) // settle views and scratch buffers
	}
	m["core.exchange_ns"], m["core.exchange_allocs"] = timeLoop(iters, exchange)

	// HandleRequest alone, on requests the nodes themselves produce. The
	// request buffer is rebuilt outside the timed call: HandleRequest ages
	// it in place.
	var handle time.Duration
	for i := range iters {
		a, b := nodes[i%len(nodes)], nodes[(i+1)%len(nodes)]
		req := a.MakeRequest()
		t0 := time.Now()
		b.HandleRequest(req)
		handle += time.Since(t0)
	}
	m["core.handle_request_ns"] = float64(handle.Nanoseconds()) / iters

	first := append([]core.Descriptor[string]{{Addr: nodes[0].Self()}}, nodes[0].View().Descriptors()...)
	second := nodes[1].View().Descriptors()
	var dst []core.Descriptor[string]
	m["core.merge_ns"], _ = timeLoop(iters, func(int) { dst = core.MergeInto(dst, first, second) })
	return nil
}

// probeCodec times the append codec on the exact frames a c=30 fleet
// sends: a 31-descriptor request (the sender plus its view), and the
// app_pooled workload's 256 B request. One round trip is one message
// encoded and decoded; an exchange is two of them.
func probeCodec(seed uint64, m metrics) error {
	const iters = 200_000
	req := transport.Request{From: probeAddr(0), WantReply: true}
	rng := rand.New(rand.NewPCG(seed, 0xC0DEC))
	for i := range viewSize + 1 {
		req.Buffer = append(req.Buffer, transport.Descriptor{Addr: probeAddr(i), Hop: int32(rng.IntN(12))})
	}
	core.SortByHop(req.Buffer)
	var frame []byte
	var dec transport.Decoder
	var failed error
	roundTrip := func(int) {
		var err error
		if frame, err = transport.AppendRequest(frame[:0], req); err != nil {
			failed = err
		}
		if _, _, _, err = dec.Decode(frame); err != nil {
			failed = err
		}
	}
	roundTrip(0) // size the buffers and fill the interner
	m["codec.request_roundtrip_ns"], m["codec.allocs_per_roundtrip"] = timeLoop(iters, roundTrip)
	m["codec.frame_bytes"] = float64(len(frame))

	payload := make([]byte, appPayload)
	msg := transport.AppMessage{From: probeAddr(0), Topic: appTopic, Payload: payload, WantReply: true}
	var intern transport.Interner
	appTrip := func(int) {
		var err error
		if frame, err = transport.AppendAppMessage(frame[:0], msg, false); err != nil {
			failed = err
		}
		if _, _, err = transport.DecodeAppMessage(frame, &intern); err != nil {
			failed = err
		}
	}
	appTrip(0)
	m["codec.app_roundtrip_ns"], _ = timeLoop(iters, appTrip)
	return failed
}

// probeGetPeer times GetPeer on an idle node: the lock and the draw, with
// nothing contending.
func probeGetPeer(n *psruntime.Node, m metrics) {
	m["runtime.getpeer_ns"], _ = timeLoop(100_000, func(int) { _, _ = n.GetPeer() })
}
