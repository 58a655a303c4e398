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
//   - a cycle-based simulator (Simulation) and the complete experimental
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
	"peersampling/internal/gateway"
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
	// PeerSelection picks the exchange partner: PeerRand, PeerHead, PeerTail.
	PeerSelection = core.PeerSelection
	// ViewSelection truncates merged views: ViewRand, ViewHead, ViewTail.
	ViewSelection = core.ViewSelection
	// Propagation sets exchange symmetry: Push, Pull, PushPull.
	Propagation = core.Propagation
	// Descriptor is a peer address plus the hop-count age of the entry.
	Descriptor = core.Descriptor[string]
)

// Policy constants, re-exported.
const (
	PeerRand = core.PeerRand
	PeerHead = core.PeerHead
	PeerTail = core.PeerTail

	ViewRand = core.ViewRand
	ViewHead = core.ViewHead
	ViewTail = core.ViewTail

	Push     = core.Push
	Pull     = core.Pull
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
	// Combined couples two protocol instances into one service (the
	// paper's concluding "second view" proposal).
	Combined = runtime.Combined
)

// NewNode constructs a runtime node whose transport endpoint is built by
// the factory.
func NewNode(cfg NodeConfig, factory TransportFactory) (*Node, error) {
	return runtime.New(cfg, factory)
}

// NewCombined couples two protocol instances into one sampling service.
func NewCombined(primary, secondary NodeConfig, factory TransportFactory, seed uint64) (*Combined, error) {
	return runtime.NewCombined(primary, secondary, factory, seed)
}

// Transports (re-exported from internal/transport).
type (
	// Transport moves gossip exchanges between nodes.
	Transport = transport.Transport
	// TransportFactory builds a node's endpoint around its handler.
	TransportFactory = transport.Factory
	// TransportStats is a snapshot of a real backend's wire-level
	// counters (dials, reuses, bytes in/out, dropped datagrams, rejected
	// and evicted hostile connections); see Node.TransportStats.
	TransportStats = transport.Stats
	// TransportLimits bounds a listener's resource use under hostile
	// load: max concurrent served connections (accept backpressure with
	// rejects counted), and keep-alive budgets that shrink for peers that
	// never initiate a pull. The zero value selects safe defaults.
	TransportLimits = transport.Limits
	// PoolConfig tunes the pooled TCP backend (idle cap and timeout,
	// plus listener hardening via its Limits field).
	PoolConfig = transport.PoolConfig
	// Fabric is the in-memory test network.
	Fabric = transport.Fabric
	// FabricOption configures a Fabric.
	FabricOption = transport.FabricOption
)

// NewFabric returns an in-memory network for single-process clusters.
func NewFabric(opts ...FabricOption) *Fabric { return transport.NewFabric(opts...) }

// TCPFactory returns a TransportFactory serving real TCP on the given
// listen address (use "host:0" for an ephemeral port; Node.Addr reports
// the bound address). Every exchange dials a fresh connection; prefer
// PooledTCPFactory when gossip rates or cluster sizes grow. An optional
// TransportLimits hardens the listener; omitted, the defaults apply.
func TCPFactory(listen string, lim ...TransportLimits) TransportFactory {
	return func(h transport.Handler) (transport.Transport, error) {
		return transport.ListenTCPLimits(listen, h, firstLimit(lim))
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
// of dialing, and idle connections are evicted after cfg.IdleTimeout. A
// zero PoolConfig selects the defaults.
func PooledTCPFactory(listen string, cfg ...PoolConfig) TransportFactory {
	var pc PoolConfig
	if len(cfg) > 0 {
		pc = cfg[0]
	}
	return func(h transport.Handler) (transport.Transport, error) {
		return transport.ListenPooledTCP(listen, h, pc)
	}
}

// UDPFactory returns a TransportFactory carrying one exchange per
// datagram pair over UDP: the cheapest backend per exchange, with loss
// surfacing as exchange failures the protocol self-heals around. A node
// whose view encodes past one datagram gets an error on every exchange it
// initiates; a response that would not fit is dropped and counted in
// TransportStats (the wire carries no error frames), which the oversized
// node's own active errors make diagnosable.
// An optional TransportLimits caps concurrent handler dispatch; omitted,
// the defaults apply.
func UDPFactory(listen string, lim ...TransportLimits) TransportFactory {
	return func(h transport.Handler) (transport.Transport, error) {
		return transport.ListenUDPLimits(listen, h, firstLimit(lim))
	}
}

// NewTransportFactory resolves a registered backend name ("tcp",
// "tcp-pooled", "udp") to a TransportFactory bound to the listen address,
// under the default TransportLimits.
func NewTransportFactory(name, listen string) (TransportFactory, error) {
	return transport.NewFactory(name, listen)
}

// NewTransportFactoryLimits is NewTransportFactory with explicit
// hardening limits threaded through to the backend (see TransportLimits
// and the "hostile networks" section of the README).
func NewTransportFactoryLimits(name, listen string, lim TransportLimits) (TransportFactory, error) {
	return transport.NewFactoryLimits(name, listen, lim)
}

// TransportBackends returns the sorted names of the registered
// real-network transport backends.
func TransportBackends() []string { return transport.Backends() }

// Observability (re-exported from internal/metrics): continuous
// instrumentation for live deployments.
type (
	// Collector snapshots registered nodes: protocol counters, all wire
	// counters and view-shape gauges. Register a *Node and expose the
	// collector through a MetricsServer and/or a MetricsDumper.
	Collector = metrics.Collector
	// MetricsServer serves a Collector's snapshots on HTTP GET /metrics
	// in the Prometheus text exposition format.
	MetricsServer = metrics.Server
	// MetricsDumper appends periodic snapshot rounds as long-form CSV
	// (node,cycle,metric,value — the schema the experiment renderers
	// emit) or JSONL.
	MetricsDumper = metrics.Dumper
	// MetricsSnapshot is one node's observable state at one instant.
	MetricsSnapshot = metrics.NodeSnapshot
	// MetricsFormat selects a dumper's output shape.
	MetricsFormat = metrics.Format
)

// Dumper output formats.
const (
	MetricsCSV   = metrics.FormatCSV
	MetricsJSONL = metrics.FormatJSONL
)

// NewCollector returns an empty metrics collector.
func NewCollector() *Collector { return metrics.New() }

// NewMetricsServer serves the collector on addr (":0" picks an ephemeral
// port, reported by the server's Addr method) until Close.
func NewMetricsServer(c *Collector, addr string) (*MetricsServer, error) {
	return metrics.NewServer(c, addr)
}

// NewMetricsDumper returns a dumper appending snapshot rounds to w; call
// Dump per round or Start/Stop for a background ticker.
func NewMetricsDumper(c *Collector, w io.Writer, format MetricsFormat) *MetricsDumper {
	return metrics.NewDumper(c, w, format)
}

// NewMetricsFileDumper returns a dumper appending to the file at path,
// creating it if needed: the format follows the extension and the CSV
// header is only written into an empty file, so restarts append cleanly.
// Close the dumper (after Stop) to close the file.
func NewMetricsFileDumper(c *Collector, path string) (*MetricsDumper, error) {
	return metrics.NewFileDumper(c, path)
}

// MetricsFormatForPath picks the dump format implied by a file extension
// (".jsonl"/".ndjson" select JSONL, anything else CSV).
func MetricsFormatForPath(path string) MetricsFormat { return metrics.FormatForPath(path) }

// Simulation (re-exported from internal/sim) for experimentation at scale
// without real sockets or timers.
type (
	// Simulation is a cycle-based network of protocol instances.
	Simulation = sim.Network
	// SimConfig parameterises a Simulation.
	SimConfig = sim.Config
	// SimNodeID identifies a simulated node.
	SimNodeID = sim.NodeID
	// Observation is one row of overlay metrics.
	Observation = sim.Observation
	// MetricsConfig tunes metric estimation on large overlays.
	MetricsConfig = sim.MetricsConfig
)

// NewSimulation returns an empty cycle-based simulation.
func NewSimulation(cfg SimConfig) (*Simulation, error) { return sim.New(cfg) }

// NewRandomOverlay returns a Simulation of n nodes whose views start as
// uniform random samples (the paper's random initial topology).
func NewRandomOverlay(cfg SimConfig, n int) *Simulation { return scenario.BuildRandom(cfg, n) }

// NewLatticeOverlay returns a Simulation of n nodes bootstrapped as the
// paper's structured ring lattice.
func NewLatticeOverlay(cfg SimConfig, n int) *Simulation { return scenario.BuildLattice(cfg, n) }

// Workload peer sources (re-exported from internal/app): the simulation
// backends the broadcast and aggregate engines draw gossip partners from.
type (
	// WorkloadSource hands each simulated node its per-round peer stream.
	WorkloadSource = app.Source[sim.NodeID]
	// WorkloadSnapshot is one engine's counter snapshot.
	WorkloadSnapshot = app.Snapshot
)

// NewUniformPeers returns the idealised uniform peer source over n nodes
// that the gossip literature assumes. The salt separates RNG streams
// between workloads sharing a seed (broadcast.UniformSalt,
// aggregate.UniformSalt reproduce each package's historical results).
func NewUniformPeers(n int, seed, salt uint64) WorkloadSource { return app.NewUniform(n, seed, salt) }

// NewOverlayPeers draws workload gossip partners from the live views of a
// peer sampling simulation; each workload round advances the overlay one
// gossip cycle.
func NewOverlayPeers(s *Simulation) WorkloadSource { return app.NewOverlay(s) }

// Daemon runtime (re-exported from internal/config, internal/daemon and
// internal/gateway): the configuration-driven service form of the node,
// the same machinery cmd/psnode runs.
type (
	// Config is the daemon's full versioned configuration: node identity
	// and protocol, transport backend and hardening limits, metrics
	// endpoints, control surface, and the sampling gateway.
	Config = config.Config
	// ConfigDiff classifies the changes between two configs into
	// hot-applicable and restart-required field paths.
	ConfigDiff = config.ReloadDiff
	// ConfigFlags overlays explicitly-set command-line flags onto a
	// Config (see FromFlags / Apply).
	ConfigFlags = config.Flags
	// Daemon owns one node plus its plugin service surface (metrics
	// server, dumper, reporter, control agent, gateway) with aggregated
	// health, live reload and signal handling.
	Daemon = daemon.Manager
	// DaemonOptions parameterises NewDaemon.
	DaemonOptions = daemon.Options
	// DaemonReport is the aggregated status served on /healthz.
	DaemonReport = daemon.Report
	// PluginStatus is one daemon plugin's lifecycle state.
	PluginStatus = daemon.Status
	// Gateway serves cached peer samples to light clients over HTTP
	// (GET /v1/sample?n=K) with per-client rate limiting.
	Gateway = gateway.Gateway
	// GatewayConfig tunes a Gateway's cache and rate limits.
	GatewayConfig = gateway.Config
	// GatewaySampler is the node-side surface a Gateway draws from
	// (satisfied by *Node).
	GatewaySampler = gateway.Sampler
)

// DefaultConfig returns the daemon configuration with every field at its
// documented default (loopback ephemeral listener, Newscast protocol,
// all optional plugins disabled).
func DefaultConfig() Config { return config.Default() }

// LoadConfig loads, defaults and validates a daemon configuration from a
// JSON file. Duplicate or unknown fields and invalid values are errors
// naming the offending field path.
func LoadConfig(path string) (Config, error) { return config.LoadFile(path) }

// WriteConfig writes cfg to path as JSON (a valid LoadConfig input —
// how the fleet's subprocess driver provisions its members).
func WriteConfig(path string, cfg Config) error { return config.WriteFile(path, cfg) }

// ConfigFromFlags registers the daemon's config-override flags on fs;
// after fs.Parse, Apply overlays exactly the flags the user set.
func ConfigFromFlags(fs *flag.FlagSet) *ConfigFlags { return config.FromFlags(fs) }

// NewDaemon builds the full daemon — node, transport, and every plugin
// the config enables — without starting it. Use Start/Close for manual
// lifecycles or Run for the signal-driven foreground form.
func NewDaemon(cfg Config, opts DaemonOptions) (*Daemon, error) { return daemon.New(cfg, opts) }

// NewGateway serves the light-client sampling API on addr off s
// (typically a *Node), refreshing its peer cache in the background. A
// zero GatewayConfig selects the defaults.
func NewGateway(addr string, s GatewaySampler, cfg GatewayConfig) (*Gateway, error) {
	return gateway.New(addr, s, cfg)
}
