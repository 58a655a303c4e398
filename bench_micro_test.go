// Micro-benchmarks for the building blocks: view algebra, protocol
// exchanges, simulation cycles, graph metrics, removal sweeps and the
// wire codec. These quantify the cost model behind the experiment
// harness (e.g. one cycle at paper scale, one BFS, one snapshot).
package peersampling_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"peersampling/internal/core"
	"peersampling/internal/graph"
	"peersampling/internal/scenario"
	"peersampling/internal/sim"
	"peersampling/internal/transport"
)

func benchView(c int, rng *rand.Rand) []core.Descriptor[int32] {
	out := make([]core.Descriptor[int32], c)
	for i := range out {
		out[i] = core.Descriptor[int32]{Addr: int32(rng.IntN(1 << 20)), Hop: int32(i)}
	}
	return out
}

func BenchmarkViewMerge(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x := benchView(31, rng)
	y := benchView(31, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Merge(x, y)
	}
}

func BenchmarkExchangePushPull(b *testing.B) {
	mk := func(id int32) *core.Node[int32] {
		n, err := core.NewNode(id, core.Newscast, 30, rand.New(rand.NewPCG(uint64(id), 1)))
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(9, 9))
		n.Bootstrap(benchView(30, rng))
		return n
	}
	x, y := mk(1<<21), mk(1<<21+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.AgeView()
		_, req, err := x.InitiateExchange()
		if err != nil {
			b.Fatal(err)
		}
		resp, ok := y.HandleRequest(req)
		if ok {
			x.HandleResponse(resp)
		}
	}
}

func benchNetwork(b *testing.B, n int) *sim.Network {
	b.Helper()
	w := scenario.BuildRandom(sim.Config{Protocol: core.Newscast, ViewSize: 30, Seed: 2}, n)
	w.Run(10) // leave the artificial bootstrap state
	return w
}

func BenchmarkSimCycle(b *testing.B) {
	for _, n := range []int{1000, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := benchNetwork(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.RunCycle()
			}
		})
	}
}

// BenchmarkShardedCycle measures the staged parallel cycle driver at a
// size where per-cycle overheads have vanished; the worker subbenches
// expose its scaling (bounded by the machine — the results are honest
// numbers for the hardware they ran on, not an architecture claim).
func BenchmarkShardedCycle(b *testing.B) {
	w := benchNetwork(b, 100_000)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.RunCycleSharded(workers)
			}
		})
	}
}

// millionNetwork builds the 10^6-node population once per process and
// shares it across the million-scale benchmarks; rebuilding it per
// benchmark would dwarf the measurements.
var millionNetwork *sim.Network

func benchMillionNetwork(b *testing.B) *sim.Network {
	b.Helper()
	if millionNetwork == nil {
		millionNetwork = scenario.BuildRandom(
			sim.Config{Protocol: core.Newscast, ViewSize: 30, Seed: 2}, 1_000_000)
		millionNetwork.RunSharded(2, 0) // leave the artificial bootstrap state
	}
	return millionNetwork
}

// BenchmarkMillionCycleSeq runs one sequential cycle over 10^6 nodes —
// the paper's scale, far beyond what its authors could simulate in 2004.
// Run with -benchtime=1x: a single cycle is seconds, and the population
// state advances across iterations.
func BenchmarkMillionCycleSeq(b *testing.B) {
	w := benchMillionNetwork(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RunCycle()
	}
}

// BenchmarkMillionCycleSharded is the same population driven by the
// staged engine at GOMAXPROCS workers.
func BenchmarkMillionCycleSharded(b *testing.B) {
	w := benchMillionNetwork(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RunCycleSharded(0)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	w := benchNetwork(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.TakeSnapshot()
	}
}

func BenchmarkObserveSampled(b *testing.B) {
	w := benchNetwork(b, 10_000)
	mc := sim.MetricsConfig{PathSources: 24, ClusteringSample: 600, Seed: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Observe(mc)
	}
}

func BenchmarkGraphBFS(b *testing.B) {
	g := graph.RandomViewGraph(10_000, 30, rand.New(rand.NewPCG(4, 4)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BFS(int32(i % g.NumNodes()))
	}
}

func BenchmarkGraphClusteringSampled(b *testing.B) {
	g := graph.RandomViewGraph(10_000, 30, rand.New(rand.NewPCG(5, 5)))
	rng := rand.New(rand.NewPCG(6, 6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.EstimateClustering(600, rng)
	}
}

func BenchmarkRemovalSweep(b *testing.B) {
	g := graph.RandomViewGraph(10_000, 30, rand.New(rand.NewPCG(7, 7)))
	checkpoints := make([]int, 0, 7)
	for p := 65; p <= 95; p += 5 {
		checkpoints = append(checkpoints, g.NumNodes()*p/100)
	}
	rng := rand.New(rand.NewPCG(8, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = graph.RemovalSweep(g, checkpoints, rng)
	}
}

// BenchmarkCodecRoundTrip measures the pooled codec path every transport
// hot loop uses: encode into a reused buffer, decode through a Decoder
// that reuses descriptor scratch and interns addresses. At steady state
// the round trip is allocation-free.
func BenchmarkCodecRoundTrip(b *testing.B) {
	buf := make([]core.Descriptor[string], 31)
	for i := range buf {
		buf[i] = core.Descriptor[string]{Addr: fmt.Sprintf("10.0.%d.%d:7946", i, i), Hop: int32(i)}
	}
	req := transport.Request{From: "10.0.0.1:7946", WantReply: true, Buffer: buf}
	var dec transport.Decoder
	var encBuf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := transport.AppendRequest(encBuf[:0], req)
		if err != nil {
			b.Fatal(err)
		}
		encBuf = frame
		if _, _, _, err := dec.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEchoHandler echoes pull requests, standing in for the passive
// protocol thread in transport benchmarks.
func benchEchoHandler(req transport.Request) (transport.Response, bool) {
	return transport.Response{From: "server", Buffer: req.Buffer}, req.WantReply
}

// benchWireRequest is a realistic pushpull request: a full 30-descriptor
// view plus the sender's own descriptor.
func benchWireRequest(from string) transport.Request {
	buf := make([]transport.Descriptor, 31)
	for i := range buf {
		buf[i] = transport.Descriptor{Addr: fmt.Sprintf("10.0.%d.%d:7946", i, i), Hop: int32(i)}
	}
	return transport.Request{From: from, WantReply: true, Buffer: buf}
}

// BenchmarkTCPExchangeDial measures a full pushpull exchange over the
// dial-per-exchange TCP baseline on loopback.
func BenchmarkTCPExchangeDial(b *testing.B) {
	server, err := transport.ListenTCP("127.0.0.1:0", benchEchoHandler)
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	client, err := transport.ListenTCP("127.0.0.1:0", benchEchoHandler)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	req := benchWireRequest(client.Addr())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := client.Exchange(ctx, server.Addr(), req); err != nil || !ok {
			b.Fatalf("exchange: %v ok=%v", err, ok)
		}
	}
}

// BenchmarkTCPExchangeDialHardened is BenchmarkTCPExchangeDial with an
// explicit (tight) connection cap on the server, so every accept passes
// through the hardening gate; the delta against the unhardened dial
// benchmark is the accept-path overhead of the Limits layer.
func BenchmarkTCPExchangeDialHardened(b *testing.B) {
	server, err := transport.ListenTCPLimits("127.0.0.1:0", benchEchoHandler,
		transport.Limits{MaxConns: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	client, err := transport.ListenTCP("127.0.0.1:0", benchEchoHandler)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	req := benchWireRequest(client.Addr())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := client.Exchange(ctx, server.Addr(), req); err != nil || !ok {
			b.Fatalf("exchange: %v ok=%v", err, ok)
		}
	}
	b.StopTimer()
	stats := server.TransportStats()
	b.ReportMetric(float64(stats.AcceptRejects), "rejects")
}

// BenchmarkTCPExchangePooled measures the same exchange over pooled
// persistent connections; the delta against BenchmarkTCPExchangeDial is
// the per-exchange dial cost the pool amortises away.
func BenchmarkTCPExchangePooled(b *testing.B) {
	server, err := transport.ListenPooledTCP("127.0.0.1:0", benchEchoHandler, transport.PoolConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	client, err := transport.ListenPooledTCP("127.0.0.1:0", benchEchoHandler, transport.PoolConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	req := benchWireRequest(client.Addr())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := client.Exchange(ctx, server.Addr(), req); err != nil || !ok {
			b.Fatalf("exchange: %v ok=%v", err, ok)
		}
	}
	b.StopTimer()
	stats := client.TransportStats()
	b.ReportMetric(float64(stats.Dials), "dials")
}

// BenchmarkUDPExchange measures the same exchange as one datagram pair.
func BenchmarkUDPExchange(b *testing.B) {
	server, err := transport.ListenUDP("127.0.0.1:0", benchEchoHandler)
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	client, err := transport.ListenUDP("127.0.0.1:0", benchEchoHandler)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	req := benchWireRequest(client.Addr())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := client.Exchange(ctx, server.Addr(), req); err != nil || !ok {
			b.Fatalf("exchange: %v ok=%v", err, ok)
		}
	}
}

func BenchmarkFabricExchange(b *testing.B) {
	f := transport.NewFabric()
	handler := func(req transport.Request) (transport.Response, bool) {
		return transport.Response{From: "b", Buffer: req.Buffer}, req.WantReply
	}
	a, err := f.Endpoint("a", handler)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Endpoint("b", handler); err != nil {
		b.Fatal(err)
	}
	req := transport.Request{From: "a", WantReply: true,
		Buffer: []transport.Descriptor{{Addr: "x", Hop: 1}}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.Exchange(ctx, "b", req); err != nil {
			b.Fatal(err)
		}
	}
}
