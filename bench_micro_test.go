// Micro-benchmarks that no psbench probe covers: simulation cycles at
// 10^6 nodes, graph metrics, removal sweeps and the hardened accept path.
// View merges, exchanges, cycles at 10^4–10^5 nodes, snapshots, the codec
// and per-backend exchanges are measured by psbench's per-layer metrics
// (benchmark/README.md).
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

// randomGraph builds the uniform-random-view baseline of n nodes with
// out-views of c.
func randomGraph(n, c int, seed uint64) *graph.Graph {
	views := graph.RandomOutViews(n, c, rand.New(rand.NewPCG(seed, seed)))
	return graph.FromRows(n, func(i int, dst []int32) []int32 { return append(dst, views[i]...) })
}

func BenchmarkGraphBFS(b *testing.B) {
	g := randomGraph(10_000, 30, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BFS(int32(i % g.NumNodes()))
	}
}

func BenchmarkGraphClusteringSampled(b *testing.B) {
	g := randomGraph(10_000, 30, 5)
	rng := rand.New(rand.NewPCG(6, 6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.EstimateClustering(600, rng)
	}
}

// BenchmarkGraphPathLengthSampled runs psbench paper_dynamics's
// path-length estimate: 24 sources on 10^4 nodes with random views of 30.
func BenchmarkGraphPathLengthSampled(b *testing.B) {
	g := randomGraph(10_000, 30, 6)
	rng := rand.New(rand.NewPCG(7, 7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = g.EstimatePathLength(24, rng)
	}
}

func BenchmarkRemovalSweep(b *testing.B) {
	g := randomGraph(10_000, 30, 7)
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

// BenchmarkTCPExchangeDialHardened measures a dial-per-exchange pushpull
// with an explicit (tight) connection cap on the server, so every accept
// passes through the hardening gate of the Limits layer.
func BenchmarkTCPExchangeDialHardened(b *testing.B) {
	server, err := transport.ListenTCP("127.0.0.1:0", benchEchoHandler,
		transport.Limits{MaxConns: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	client, err := transport.ListenTCP("127.0.0.1:0", benchEchoHandler, transport.Limits{})
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
