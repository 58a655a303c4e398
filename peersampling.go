// Package peersampling is a Go implementation of the gossip-based peer
// sampling service of Jelasity, Guerraoui, Kermarrec and van Steen,
// "The Peer Sampling Service: Experimental Evaluation of Unstructured
// Gossip-Based Implementations" (Middleware 2004).
//
// The peer sampling service provides every node of a large-scale
// distributed system with a continuously refreshed partial view of the
// group, from which gossip applications draw peers (the paper's init() /
// getPeer() API). This package implements:
//
//   - the paper's generic protocol skeleton with all 27 combinations of
//     peer selection (rand/head/tail), view selection (rand/head/tail)
//     and view propagation (push/pull/pushpull), including the named
//     instances Newscast = (rand,head,pushpull) and Lpbcast =
//     (rand,rand,push);
//   - an asynchronous runtime (Node) over pluggable transports: an
//     in-memory fabric with latency/loss/partition injection for tests
//     and demos, and three real-network backends — dial-per-exchange TCP
//     (TCPFactory), connection-pooled TCP with persistent per-peer
//     connections and idle eviction (PooledTCPFactory, the production
//     choice), and one-datagram-per-message UDP (UDPFactory). Real
//     backends share a compact binary codec, keep wire-level counters
//     (Node.TransportStats), are selectable by name through
//     NewTransportFactory / TransportBackends, and are hardened against
//     hostile networks via TransportLimits (connection caps with accept
//     backpressure, keep-alive budgets that shrink for peers that never
//     pull — see the README's "hostile networks" section);
//   - a cycle-based simulator (NewSimulation) and the complete experimental
//     methodology of the paper (see internal/scenario and the benchmark
//     harness at the repository root);
//   - example gossip applications built on the service: epidemic
//     broadcast (package broadcast) and push-pull averaging (package
//     aggregate).
//
// # Quick start
//
//	fabric := peersampling.NewFabric()
//	node, err := peersampling.NewNode(peersampling.NodeConfig{
//		Protocol: peersampling.Newscast(),
//		ViewSize: 30,
//		Period:   time.Second,
//	}, fabric.Factory("node"))
//	if err != nil { ... }
//	defer node.Close()
//	_ = node.Init([]string{contactAddr})
//	_ = node.Start()
//	peer, err := node.GetPeer()
//
// For real deployments replace the fabric factory with a real backend,
// e.g. peersampling.PooledTCPFactory("10.0.0.5:7946") — or resolve one by
// name with peersampling.NewTransportFactory("tcp-pooled", "10.0.0.5:7946").
// The listen address doubles as the node's gossip identity (peers dial the
// address the node advertises), so bind a concrete address reachable by
// peers, not the wildcard "0.0.0.0".
package peersampling

import (
	"flag"
	"io"

	"peersampling/internal/app"
	"peersampling/internal/config"
	"peersampling/internal/core"
	"peersampling/internal/daemon"
	"peersampling/internal/metrics"
	"peersampling/internal/runtime"
	"peersampling/internal/scenario"
	"peersampling/internal/sim"
	"peersampling/internal/transport"
)

// Protocol design space (re-exported from the core implementation).
type (
	// Protocol is a 3-tuple (peer selection, view selection, propagation).
	Protocol = core.Protocol
)

// Policy constants, re-exported.
const (
	PeerRand = core.PeerRand
	PeerTail = core.PeerTail

	ViewRand = core.ViewRand

	Push     = core.Push
	PushPull = core.PushPull
)

// Newscast returns the (rand,head,pushpull) protocol tuple: fast
// self-healing, balanced degree distribution.
func Newscast() Protocol { return core.Newscast }

// Lpbcast returns the (rand,rand,push) protocol tuple used by lightweight
// probabilistic broadcast.
func Lpbcast() Protocol { return core.Lpbcast }

// ParseProtocol parses the paper's tuple notation, e.g.
// "(rand,head,pushpull)".
func ParseProtocol(s string) (Protocol, error) { return core.ParseProtocol(s) }

// AllProtocols returns all 27 protocol combinations.
func AllProtocols() []Protocol { return core.AllProtocols() }

// StudiedProtocols returns the eight protocols the paper's evaluation
// retains after excluding degenerate combinations.
func StudiedProtocols() []Protocol { return core.StudiedProtocols() }

// Runtime service (re-exported from internal/runtime).
type (
	// Service is the paper's two-method API: Init and GetPeer.
	Service = runtime.Service
	// Node is an asynchronous peer sampling node over a Transport.
	Node = runtime.Node
	// NodeConfig parameterises a Node.
	NodeConfig = runtime.Config
)

// NewNode constructs a runtime node whose transport endpoint is built by
// the factory.
func NewNode(cfg NodeConfig, factory TransportFactory) (*Node, error) {
	return runtime.New(cfg, factory)
}

// NewCombined couples two protocol instances into one sampling service
// (the paper's concluding "second view" proposal).
func NewCombined(primary, secondary NodeConfig, factory TransportFactory, seed uint64) (*runtime.Combined, error) {
	return runtime.NewCombined(primary, secondary, factory, seed)
}

// Transports (re-exported from internal/transport).
type (
	// TransportFactory builds a node's endpoint around its handler.
	TransportFactory = transport.Factory
	// TransportLimits bounds a listener's resource use under hostile
	// load: max concurrent served connections (accept backpressure with
	// rejects counted), and keep-alive budgets that shrink for peers that
	// never initiate a pull. The zero value selects safe defaults.
	TransportLimits = transport.Limits
	// Fabric is the in-memory test network.
	Fabric = transport.Fabric
)

// NewFabric returns an in-memory network for single-process clusters.
func NewFabric() *Fabric { return transport.NewFabric() }

// TCPFactory returns a TransportFactory serving real TCP on the given
// listen address (use "host:0" for an ephemeral port; Node.Addr reports
// the bound address). Every exchange dials a fresh connection; prefer
// PooledTCPFactory when gossip rates or cluster sizes grow. An optional
// TransportLimits hardens the listener; omitted, the defaults apply.
func TCPFactory(listen string, lim ...TransportLimits) TransportFactory {
	return func(h transport.Handler) (transport.Transport, error) {
		return transport.ListenTCP(listen, h, firstLimit(lim))
	}
}

// firstLimit unwraps the optional trailing TransportLimits of the factory
// constructors.
func firstLimit(lim []TransportLimits) TransportLimits {
	if len(lim) > 0 {
		return lim[0]
	}
	return TransportLimits{}
}

// PooledTCPFactory returns a TransportFactory serving TCP with persistent
// per-peer connections: each exchange reuses a pooled connection instead
// of dialing, and idle connections are evicted after a minute. An
// optional TransportLimits hardens the listener; omitted, the defaults
// apply.
func PooledTCPFactory(listen string, lim ...TransportLimits) TransportFactory {
	return func(h transport.Handler) (transport.Transport, error) {
		return transport.ListenPooledTCP(listen, h, firstLimit(lim))
	}
}

// UDPFactory returns a TransportFactory carrying one exchange per
// datagram pair over UDP: the cheapest backend per exchange, with loss
// surfacing as exchange failures the protocol self-heals around. A node
// whose view encodes past one datagram gets an error on every exchange it
// initiates; a response that would not fit is dropped and counted in
// Node.TransportStats (the wire carries no error frames), which the oversized
// node's own active errors make diagnosable.
// An optional TransportLimits caps concurrent handler dispatch; omitted,
// the defaults apply.
func UDPFactory(listen string, lim ...TransportLimits) TransportFactory {
	return func(h transport.Handler) (transport.Transport, error) {
		return transport.ListenUDP(listen, h, firstLimit(lim))
	}
}

// NewTransportFactory resolves a backend name ("tcp",
// "tcp-pooled", "udp") to a TransportFactory bound to the listen address,
// under the default TransportLimits.
func NewTransportFactory(name, listen string) (TransportFactory, error) {
	return transport.NewFactory(name, listen)
}

// TransportBackends returns the sorted names of the real-network
// transport backends.
func TransportBackends() []string { return transport.Backends() }

// Observability (re-exported from internal/metrics): continuous
// instrumentation for live deployments. A collector snapshots registered
// nodes (protocol counters, wire counters, view-shape gauges); a metrics
// server exposes it on HTTP GET /metrics in the Prometheus text format,
// and a dumper appends snapshot rounds as long-form CSV
// (node,cycle,metric,value).

// NewCollector returns an empty metrics collector.
func NewCollector() *metrics.Collector { return metrics.New() }

// NewMetricsServer serves the collector on addr (":0" picks an ephemeral
// port, reported by the server's Addr method) until Close.
func NewMetricsServer(c *metrics.Collector, addr string) (*metrics.Server, error) {
	return metrics.NewServer(c, addr)
}

// NewMetricsDumper returns a dumper appending snapshot rounds to w; call
// Dump per round or Start/Stop for a background ticker.
func NewMetricsDumper(c *metrics.Collector, w io.Writer) *metrics.Dumper {
	return metrics.NewDumper(c, w)
}

// Simulation (re-exported from internal/sim) for experimentation at scale
// without real sockets or timers.
type (
	// SimConfig parameterises a simulation.
	SimConfig = sim.Config
	// MetricsConfig tunes metric estimation on large overlays.
	MetricsConfig = sim.MetricsConfig
)

// NewSimulation returns an empty cycle-based simulation: a network of
// protocol instances advanced one cycle at a time.
func NewSimulation(cfg SimConfig) (*sim.Network, error) { return sim.New(cfg) }

// NewRandomOverlay returns a Simulation of n nodes whose views start as
// uniform random samples (the paper's random initial topology).
func NewRandomOverlay(cfg SimConfig, n int) *sim.Network { return scenario.BuildRandom(cfg, n) }

// NewLatticeOverlay returns a Simulation of n nodes bootstrapped as the
// paper's structured ring lattice.
func NewLatticeOverlay(cfg SimConfig, n int) *sim.Network { return scenario.BuildLattice(cfg, n) }

// Workload peer sources (re-exported from internal/app): the simulation
// backends the broadcast and aggregate engines draw gossip partners from.
type (
	// WorkloadSource hands each simulated node its per-round peer stream.
	WorkloadSource = app.Source[sim.NodeID]
)

// NewUniformPeers returns the idealised uniform peer source over n nodes
// that the gossip literature assumes. The salt separates RNG streams
// between workloads sharing a seed (broadcast.UniformSalt,
// aggregate.UniformSalt reproduce each package's historical results).
func NewUniformPeers(n int, seed, salt uint64) WorkloadSource { return app.NewUniform(n, seed, salt) }

// NewOverlayPeers draws workload gossip partners from the live views of a
// peer sampling simulation; each workload round advances the overlay one
// gossip cycle.
func NewOverlayPeers(s *sim.Network) WorkloadSource { return app.NewOverlay(s) }

// Daemon runtime (re-exported from internal/config and internal/daemon):
// the configuration-driven service form of the node, the same machinery
// cmd/psnode runs.
type (
	// Config is the daemon's full versioned configuration: node identity
	// and protocol, transport backend and hardening limits, metrics
	// endpoints, control surface, and the sampling gateway.
	Config = config.Config
	// DaemonOptions parameterises NewDaemon.
	DaemonOptions = daemon.Options
)

// DefaultConfig returns the daemon configuration with every field at its
// documented default (loopback ephemeral listener, Newscast protocol,
// all optional plugins disabled).
func DefaultConfig() Config { return config.Default() }

// LoadConfig loads, defaults and validates a daemon configuration from a
// JSON file. Duplicate or unknown fields and invalid values are errors
// naming the offending field path.
func LoadConfig(path string) (Config, error) { return config.LoadFile(path) }

// ConfigFromFlags registers the daemon's config-override flags on fs;
// after fs.Parse, Apply overlays exactly the flags the user set.
func ConfigFromFlags(fs *flag.FlagSet) *config.Flags { return config.FromFlags(fs) }

// NewDaemon builds the full daemon — node, transport, and every plugin
// the config enables (metrics server, dumper, reporter, control agent,
// gateway) — without starting it. Use Start/Close for manual lifecycles
// or Run for the signal-driven foreground form.
func NewDaemon(cfg Config, opts DaemonOptions) (*daemon.Manager, error) { return daemon.New(cfg, opts) }
