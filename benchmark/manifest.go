package main

// This file is the benchmark's table of contents: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics with the end-to-end metric and workload each is expected to
// move. BENCHMARK.json at the repo root repeats the names, units and
// bounds; a test keeps the two in step.

// loadModel is how every workload generates load.
const loadModel = "closed loop, D=min(nproc,4) callers"

// heldOutSeed is the seed -selfcheck uses for its third pass, and the one
// a change that claims a gain must also hold on. Do not tune against it.
const heldOutSeed = 20040601

// defaultSeed is the seed used when none is given.
const defaultSeed = 1

type workloadSpec struct {
	name, why string
}

// The order is the order a full pass runs them in. fleet_tcp is last: it
// leaves tens of thousands of sockets in TIME_WAIT behind it.
var workloadSpecs = []workloadSpec{
	{"sim_sharded", "Closed loop, D=min(nproc,4) workers: N=1e5 Newscast c=30 sharded cycles, the paper's instrument at a size where only core and sim do work."},
	{"paper_dynamics", "Closed loop, 1 caller: N=1e4 sequential cycle plus overlay observation, the inner loop of Figures 2/3 and the only workload graph and stats dominate."},
	{"fleet_fabric", "Closed loop, D callers: 64 runtime nodes ticked over the in-memory fabric; no kernel and no codec, so runtime and core gains show at full strength."},
	{"fleet_pooled", "Closed loop, D callers: the same fleet over tcp-pooled on loopback, the daemon default; codec, persistent connections and syscalls dominate."},
	{"fleet_udp", "Closed loop, D callers: the same fleet over udp; the datagram path, no connection state, a socket per exchange."},
	{"app_pooled", "Closed loop, D callers: GetPeer then a 256 B request/reply over tcp-pooled; the second frame family, which a gossip-only gain could quietly cost."},
	{"gateway_http", "Closed loop, D keep-alive HTTP connections: GET /v1/sample n=1,8,32 from 1024 spoofed clients against a gossiping 32-node fleet, through a real socket."},
	{"fleet_tcp", "Closed loop, D callers: the same fleet over tcp, a dial per exchange, what the live experiments hard-code; must not move when the codec changes."},
}

type metricSpec struct {
	name, unit, better string
	bound              float64 // share of the parent's median a change may worsen it by
}

var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
}

type layerSpec struct {
	name, unit, better string
	moves, on          string // the end-to-end metrics it should move, and where
}

var perLayerSpecs = buildLayerSpecs()

func buildLayerSpecs() []layerSpec {
	const (
		coreMoves  = "ops_per_s, op_p50_us"
		coreOn     = "sim_sharded (most), fleet_fabric; little on fleet_tcp"
		simMoves   = "ops_per_s, cpu_us_per_op, live_heap_mb"
		simOn      = "sim_sharded"
		graphMoves = "ops_per_s, op_p50_us, live_heap_mb"
		graphOn    = "paper_dynamics only"
		codecMoves = "op_p50_us, cpu_us_per_op"
		codecOn    = "fleet_pooled, fleet_udp, app_pooled; none on fleet_fabric, sim_*; <2% on fleet_tcp"
		wireMoves  = "ops_per_s, op_p50_us, op_p99_us"
		rtMoves    = "ops_per_s"
		rtOn       = "fleet_fabric (largest share), every fleet_*"
		appMoves   = "ops_per_s, op_p99_us"
		appOn      = "app_pooled only"
		gwOn       = "gateway_http only"
		procMoves  = "op_p99_us, cpu_us_per_op"
		everywhere = "every workload"
	)
	specs := []layerSpec{
		{"core.exchange_ns", "ns", "lower", coreMoves, coreOn},
		{"core.handle_request_ns", "ns", "lower", coreMoves, coreOn},
		{"core.merge_ns", "ns", "lower", coreMoves, coreOn},
		{"core.exchange_allocs", "count", "lower", coreMoves, coreOn},

		{"sim.cycle_ms", "ms", "lower", simMoves, simOn},
		{"sim.cycle_w1_ms", "ms", "lower", simMoves, simOn},
		{"sim.scaling_efficiency", "ratio", "higher", simMoves, simOn},
		{"sim.core_ns_per_exchange", "ns", "lower", simMoves, simOn},
		{"sim.driver_self_ns_per_exchange", "ns", "lower", simMoves, simOn},
		{"sim.seq_cycle_ms", "ms", "lower", simMoves, "paper_dynamics"},
		{"sim.allocs_per_cycle", "count", "lower", simMoves, simOn},

		{"graph.snapshot_ms", "ms", "lower", graphMoves, graphOn},
		{"graph.observe_ms", "ms", "lower", graphMoves, graphOn},
		{"graph.clustering_ms", "ms", "lower", graphMoves, graphOn},
		{"graph.pathlen_ms", "ms", "lower", graphMoves, graphOn},
		{"graph.components_ms", "ms", "lower", graphMoves, graphOn},
		{"graph.allocs_per_observe", "count", "lower", graphMoves, graphOn},

		{"codec.request_roundtrip_ns", "ns", "lower", codecMoves, codecOn},
		{"codec.app_roundtrip_ns", "ns", "lower", codecMoves, "app_pooled"},
		{"codec.frame_bytes", "B", "lower", codecMoves, codecOn},
		{"codec.allocs_per_roundtrip", "count", "lower", codecMoves, codecOn},
	}
	for _, b := range []struct{ key, on string }{
		{"mem", "fleet_fabric"},
		{"pool", "fleet_pooled; also app_pooled, gateway_http (background gossip)"},
		{"tcp", "fleet_tcp"},
		{"udp", "fleet_udp"},
	} {
		p := "transport." + b.key + "."
		specs = append(specs,
			layerSpec{p + "exchange_us", "us", "lower", wireMoves, b.on},
			layerSpec{p + "wire_self_us", "us", "lower", wireMoves, b.on},
			layerSpec{p + "io_self_us", "us", "lower", wireMoves, b.on})
		if b.key == "mem" {
			continue // the fabric keeps no wire counters
		}
		specs = append(specs,
			layerSpec{p + "dials_per_op", "count", "lower", wireMoves, b.on},
			layerSpec{p + "reuses_per_op", "count", "higher", wireMoves, b.on},
			layerSpec{p + "bytes_per_op", "B", "lower", wireMoves, b.on},
			layerSpec{p + "frames_per_op", "count", "lower", wireMoves, b.on},
			layerSpec{p + "drops_per_op", "count", "lower", wireMoves, b.on})
	}
	return append(specs,
		layerSpec{"runtime.tick_us", "us", "lower", rtMoves, rtOn},
		layerSpec{"runtime.active_self_us", "us", "lower", rtMoves, rtOn},
		layerSpec{"runtime.handler_us", "us", "lower", rtMoves, rtOn},
		layerSpec{"runtime.handler_overhead_us", "us", "lower", rtMoves, rtOn},
		layerSpec{"runtime.getpeer_ns", "ns", "lower", "ops_per_s", "app_pooled; gateway_http freshness"},
		layerSpec{"runtime.failed_exchanges", "count", "lower", "failed ops", "every fleet_*"},

		layerSpec{"app.send_us", "us", "lower", appMoves, appOn},
		layerSpec{"app.wire_self_us", "us", "lower", appMoves, appOn},
		layerSpec{"app.handler_us", "us", "lower", appMoves, appOn},

		layerSpec{"gateway.rtt_n1_us", "us", "lower", appMoves, gwOn},
		layerSpec{"gateway.rtt_n8_us", "us", "lower", appMoves, gwOn},
		layerSpec{"gateway.rtt_n32_us", "us", "lower", appMoves, gwOn},
		layerSpec{"gateway.freshness_ms", "ms", "lower", appMoves, gwOn},
		layerSpec{"gateway.requests", "count", "higher", appMoves, gwOn},
		layerSpec{"gateway.rate_limited", "count", "lower", "failed ops", gwOn},
		layerSpec{"gateway.unavailable", "count", "lower", "failed ops", gwOn},
		layerSpec{"gateway.refreshes", "count", "higher", "gateway.freshness_ms", gwOn},

		layerSpec{"proc.allocs_per_op", "count", "lower", procMoves, everywhere},
		layerSpec{"proc.bytes_per_op", "B", "lower", procMoves, everywhere},
		layerSpec{"proc.gc_cycles", "count", "lower", procMoves, everywhere},
		layerSpec{"proc.gc_pause_ms", "ms", "lower", procMoves, everywhere},
		layerSpec{"proc.goroutines_peak", "count", "lower", procMoves, everywhere},

		layerSpec{"trace.overhead_pct", "%", "lower", "no end-to-end metric", everywhere},
		layerSpec{"trace.ledger_residual_pct", "%", "lower", "no end-to-end metric", "every socket workload"},
	)
}
