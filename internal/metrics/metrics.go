package metrics

import (
	"fmt"
	"sync"
	"time"

	"peersampling/internal/app"
	"peersampling/internal/core"
	"peersampling/internal/transport"
)

// Source is the Collector's read-only window onto one running node:
// exactly the observation surface *runtime.Node exposes. Implementations
// must be safe for concurrent use; the collector polls them from its own
// goroutines.
type Source interface {
	// Addr is the node's transport address.
	Addr() string
	// Stats reports lifetime protocol counters (see runtime.Node.Stats).
	Stats() (cycles, exchanges, failures, handled uint64)
	// TransportStats reports wire-level counters; ok is false when the
	// transport keeps none (e.g. the in-memory fabric).
	TransportStats() (stats transport.Stats, ok bool)
	// View returns a copy of the current partial view.
	View() []core.Descriptor[string]
}

// LatencySource is an optional Source capability: sources that keep an
// exchange-latency histogram (runtime.Node does) get it exported as a
// Prometheus histogram family and p50/p99 long-form columns.
type LatencySource interface {
	ExchangeLatency() transport.LatencySnapshot
}

// AppSource is an optional Source capability: sources running a gossip
// workload engine (see internal/workload) report its counters alongside
// the node's, landing them on the same Prometheus exposition and
// long-form dumps. ok=false means no workload is attached.
type AppSource interface {
	AppSnapshot() (app.Snapshot, bool)
}

// Poller is the remote counterpart of Source: one call returns the whole
// snapshot, or an error when the node is unreachable. The collector
// caches each poller's last successful snapshot and serves it marked
// Stale on failure, so a dead fleet member stays visible at scrape time
// instead of silently vanishing from the exposition.
type Poller interface {
	Poll() (NodeSnapshot, error)
}

// NodeSnapshot is one node's observable state at one instant: the shared
// row type behind every exporter (Prometheus exposition, long-form CSV
// dumps, the psnode report log), which all read it through the fields
// table.
type NodeSnapshot struct {
	// Node is the name the source was registered under (the Prometheus
	// "node" label and the CSV key column).
	Node string `json:"node"`
	// Addr is the node's transport address.
	Addr string `json:"addr"`
	// UnixMillis is the snapshot time.
	UnixMillis int64 `json:"unix_ms"`

	// Protocol counters, as reported by Source.Stats.
	Cycles    uint64 `json:"cycles"`
	Exchanges uint64 `json:"exchanges"`
	Failures  uint64 `json:"failures"`
	Served    uint64 `json:"served"`

	// Wire holds the transport's wire-level counters; nil when the
	// transport keeps none.
	Wire *transport.Stats `json:"wire,omitempty"`

	// Latency is the exchange round-trip histogram; nil when the source
	// keeps none (see LatencySource).
	Latency *transport.LatencySnapshot `json:"latency,omitempty"`

	// Stale marks a snapshot replayed from the collector's cache because
	// the source failed its poll this round (a dead or partitioned fleet
	// member). UnixMillis then still carries the last successful poll
	// time, which is what the staleness gauges expose.
	Stale bool `json:"stale,omitempty"`

	// View-shape gauges. The hop statistics are zero when the view is
	// empty.
	ViewSize int     `json:"view_size"`
	HopMin   int32   `json:"view_hop_min"`
	HopMax   int32   `json:"view_hop_max"`
	HopMean  float64 `json:"view_hop_mean"`

	// Gateway holds the light-client sampling gateway's counters; nil for
	// ordinary node sources. A gateway source reports its refresh count as
	// Cycles, so the dumper's cycle-granularity sampling applies unchanged.
	Gateway *GatewaySnapshot `json:"gateway,omitempty"`

	// App holds the counters of the workload engine riding this node
	// (epidemic broadcast or push-pull averaging); nil when none is
	// attached. The snapshot travels through the fleet agent's /snapshot
	// JSON unchanged, so subprocess members report workloads exactly like
	// in-process ones.
	App *app.Snapshot `json:"app,omitempty"`

	// Chaos holds a fault-plan executor's state; nil for ordinary node
	// sources. A chaos source reports its fired-event count as Cycles, so
	// the dumper emits a round exactly when the plan advanced.
	Chaos *ChaosSnapshot `json:"chaos,omitempty"`
}

// ChaosSnapshot is a chaos executor's observable state: which plan is
// running, how far its timeline has advanced, and what it has done to the
// fleet so far (see internal/chaos).
type ChaosSnapshot struct {
	// Plan names the fault plan driving the fleet.
	Plan string `json:"plan"`
	// Events counts timeline steps applied so far (including derived
	// respawn and rule-expiry steps).
	Events uint64 `json:"events"`
	// ActiveRules is the number of fault rules currently installed on the
	// fleet's transports.
	ActiveRules int `json:"active_rules"`
	// Killed / Respawned count members removed and replaced by the plan.
	Killed    uint64 `json:"killed"`
	Respawned uint64 `json:"respawned"`
	// FloodDials counts connections the plan's flood events threw.
	FloodDials uint64 `json:"flood_dials"`
	// Fired is the applied timeline so far, oldest first.
	Fired []ChaosEvent `json:"fired,omitempty"`
}

// ChaosEvent is one applied fault-plan step.
type ChaosEvent struct {
	// Seq is the step's position in the compiled timeline (0-based).
	Seq int `json:"seq"`
	// Action is the step kind: kill, respawn, partition, heal, latency,
	// loss, flood, expire.
	Action string `json:"action"`
	// AtSeconds is the step's plan-time offset.
	AtSeconds float64 `json:"at_seconds"`
	// UnixMillis is when the step was applied on the wall clock.
	UnixMillis int64 `json:"unix_ms"`
	// Targets counts what the step touched: members killed or spawned,
	// rules installed or removed, flooder goroutines launched.
	Targets int `json:"targets"`
}

// GatewaySnapshot is the sampling gateway's observable state: request
// counters, rejection counters, and the health of the sample cache. The
// struct is comparable so exporters can cheaply detect change (the
// Latency pointer is excluded from such comparisons — it is freshly
// allocated per snapshot, and latency only moves when Requests does).
type GatewaySnapshot struct {
	// Requests counts /v1/sample requests accepted for serving.
	Requests uint64 `json:"requests"`
	// PeersServed counts peer addresses returned across all requests.
	PeersServed uint64 `json:"peers_served"`
	// RateLimited counts requests refused with 429 by the per-client
	// token buckets.
	RateLimited uint64 `json:"rate_limited"`
	// Unavailable counts requests refused with 503 (empty sample cache).
	Unavailable uint64 `json:"unavailable"`
	// Refreshes counts completed cache refresh rounds.
	Refreshes uint64 `json:"refreshes"`
	// Clients is the number of client buckets currently tracked.
	Clients int `json:"clients"`
	// CacheSize is the number of distinct peers in the current batch.
	CacheSize int `json:"cache_size"`
	// CacheAgeSeconds is how long ago the batch was refreshed.
	CacheAgeSeconds float64 `json:"cache_age_seconds"`
	// Latency is the serve-time histogram of successful sample requests;
	// nil when the gateway keeps none.
	Latency *transport.LatencySnapshot `json:"latency,omitempty"`
}

// Collector registers nodes and snapshots them on demand. The zero value
// is not usable; construct collectors with New. All methods are safe for
// concurrent use.
type Collector struct {
	mu       sync.Mutex
	sources  []namedSource
	names    map[string]bool
	lastGood map[string]NodeSnapshot // last successful poll per source

	// now stubs time for deterministic tests.
	now func() time.Time
}

// namedSource is one registered observation target: a local Source
// wrapped into the common poll shape, or a remote Poller as-is.
type namedSource struct {
	name string
	poll func(unixMillis int64) (NodeSnapshot, error)
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{
		names:    map[string]bool{},
		lastGood: map[string]NodeSnapshot{},
		now:      time.Now,
	}
}

// Register adds a source under the given name. An empty name defaults to
// the source's address; a name already taken is uniquified with a "#n"
// suffix, so repeated live experiments can register fresh clusters under
// stable base names without bookkeeping.
func (c *Collector) Register(name string, src Source) {
	if name == "" {
		name = src.Addr()
	}
	c.add(name, func(unixMillis int64) (NodeSnapshot, error) {
		return snapshotOne("", src, unixMillis), nil
	})
}

// RegisterPoller adds a remote source (see Poller and Remote) under the
// given name; an empty name defaults to "remote". Poll failures serve the
// last successful snapshot marked Stale instead of dropping the node from
// the exposition.
func (c *Collector) RegisterPoller(name string, p Poller) {
	if name == "" {
		name = "remote"
	}
	c.add(name, func(unixMillis int64) (NodeSnapshot, error) {
		s, err := p.Poll()
		if err != nil {
			return NodeSnapshot{}, err
		}
		s.UnixMillis = unixMillis
		return s, nil
	})
}

// RegisterFunc adds a source whose whole snapshot is produced by fn —
// the hook for subsystems that are not sampling nodes but export through
// the same pipeline (the light-client gateway registers itself here).
// fn receives the poll time and must be safe for concurrent use; an
// empty name defaults to "source".
func (c *Collector) RegisterFunc(name string, fn func(unixMillis int64) NodeSnapshot) {
	if name == "" {
		name = "source"
	}
	c.add(name, func(unixMillis int64) (NodeSnapshot, error) {
		s := fn(unixMillis)
		s.UnixMillis = unixMillis
		return s, nil
	})
}

func (c *Collector) add(name string, poll func(int64) (NodeSnapshot, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	base := name
	for n := 2; c.names[name]; n++ {
		name = fmt.Sprintf("%s#%d", base, n)
	}
	c.names[name] = true
	c.sources = append(c.sources, namedSource{name: name, poll: poll})
}

// Len reports how many sources are registered.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sources)
}

// Snapshot polls every registered source and returns one NodeSnapshot per
// node, in registration order. Sources are polled outside the collector
// lock, so a slow node cannot block Register calls. A source whose poll
// fails (an unreachable fleet member) yields its last successful snapshot
// marked Stale — or a zero snapshot marked Stale if it never answered —
// so dead members stay visible to scrapers.
func (c *Collector) Snapshot() []NodeSnapshot {
	c.mu.Lock()
	sources := make([]namedSource, len(c.sources))
	copy(sources, c.sources)
	now := c.now
	c.mu.Unlock()

	// Sources are polled concurrently: a remote poller blocks for up to
	// its HTTP timeout when its member is slow or partitioned, and a
	// fleet accumulates dead members (livechurn registers a poller per
	// respawn) — one scrape must cost the slowest poll, not the sum.
	type polled struct {
		snap NodeSnapshot
		err  error
	}
	results := make([]polled, len(sources))
	var wg sync.WaitGroup
	for i, ns := range sources {
		wg.Add(1)
		go func(i int, ns namedSource) {
			defer wg.Done()
			results[i].snap, results[i].err = ns.poll(now().UnixMilli())
		}(i, ns)
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	snaps := make([]NodeSnapshot, len(sources))
	for i, ns := range sources {
		if results[i].err == nil {
			s := results[i].snap
			s.Node = ns.name
			c.lastGood[ns.name] = s
			snaps[i] = s
			continue
		}
		s, ok := c.lastGood[ns.name]
		if !ok {
			// Never answered: a zero snapshot keeps the node on the
			// exposition with source_up 0 and last-update 0.
			s = NodeSnapshot{Node: ns.name}
		}
		s.Stale = true
		snaps[i] = s
	}
	return snaps
}

// SnapshotSource observes one local source right now: the single-node
// form of Collector.Snapshot, used by the fleet agent to serve its
// snapshot endpoint and by the in-process cluster driver.
func SnapshotSource(name string, src Source) NodeSnapshot {
	return snapshotOne(name, src, time.Now().UnixMilli())
}

func snapshotOne(name string, src Source, unixMillis int64) NodeSnapshot {
	s := NodeSnapshot{Node: name, Addr: src.Addr(), UnixMillis: unixMillis}
	s.Cycles, s.Exchanges, s.Failures, s.Served = src.Stats()
	if wire, ok := src.TransportStats(); ok {
		s.Wire = &wire
	}
	if ls, ok := src.(LatencySource); ok {
		lat := ls.ExchangeLatency()
		s.Latency = &lat
	}
	if as, ok := src.(AppSource); ok {
		if snap, attached := as.AppSnapshot(); attached {
			s.App = &snap
		}
	}
	view := src.View()
	s.ViewSize = len(view)
	if len(view) > 0 {
		s.HopMin, s.HopMax = view[0].Hop, view[0].Hop
		sum := 0.0
		for _, d := range view {
			if d.Hop < s.HopMin {
				s.HopMin = d.Hop
			}
			if d.Hop > s.HopMax {
				s.HopMax = d.Hop
			}
			sum += float64(d.Hop)
		}
		s.HopMean = sum / float64(len(view))
	}
	return s
}
