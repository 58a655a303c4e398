package scenario

import (
	"fmt"
	"strings"
	"time"

	"peersampling/internal/config"
	"peersampling/internal/core"
	"peersampling/internal/fleet"
	"peersampling/internal/metrics"
	"peersampling/internal/transport"
)

// LiveEnv configures how a live experiment builds its cluster: which
// fleet driver runs the nodes (in-process goroutines or forked psnode
// processes) and where their metrics land. The zero value runs the nodes
// in-process and registers them with no collector.
type LiveEnv struct {
	// Collector, when non-nil, gets every cluster member registered for
	// continuous observation (see cmd/experiments -metrics-addr).
	Collector *metrics.Collector
	// Driver selects the fleet driver; empty means fleet.DriverInproc.
	Driver string
	// Psnode is the psnode binary path, required by the subprocess
	// driver.
	Psnode string
}

// liveShape is a live fleet's size, view capacity and gossip period.
type liveShape struct {
	Nodes    int           // fleet size at full strength
	ViewSize int           // view capacity, capped below fleet size
	Period   time.Duration // gossip period T
}

// deriveShape sizes a live fleet from a simulation Scale: one member per
// perNode simulated nodes, clamped to [lo, hi] — small enough that every
// member can own a real listener and, under the subprocess driver, a
// real process.
func deriveShape(sc Scale, perNode, lo, hi int) liveShape {
	nodes := min(max(sc.N/perNode, lo), hi)
	return liveShape{Nodes: nodes, ViewSize: min(sc.ViewSize, nodes-1), Period: 20 * time.Millisecond}
}

// phaseTimeout bounds every wait for the fleet to (re)converge. The flat
// grace on top of the gossip-scaled deadline covers subprocess members'
// process-spawn time on loaded machines; a healthy fleet returns early.
func (s liveShape) phaseTimeout() time.Duration {
	return 30*s.Period*time.Duration(s.Nodes) + 5*time.Second
}

// liveHead is what every live result reports about its boot: the fleet
// driver that ran it and the bootstrap outcome.
type liveHead struct {
	// Driver names the fleet driver that ran the cluster.
	Driver string
	// BootstrapComplete counts complete views after bootstrap (must be
	// Nodes for the rest of the experiment to mean anything);
	// BootstrapTime is the wall-clock time from a full fleet to full
	// views, or the bounded wait.
	BootstrapComplete int
	BootstrapTime     time.Duration
}

// header writes the lines every live result opens with: the title, the
// fleet's shape and driver (extra appends the experiment's own
// settings) and the bootstrap outcome.
func (h liveHead) header(b *strings.Builder, title string, s liveShape, extra string) {
	fmt.Fprintf(b, "%s\n", title)
	fmt.Fprintf(b, "fleet: %d nodes (%s driver), c=%d, T=%v%s\n", s.Nodes, h.Driver, s.ViewSize, s.Period, extra)
	fmt.Fprintf(b, "%-38s %10s\n", "", "value")
	fmt.Fprintf(b, "%-38s %7d/%2d\n", "complete views after bootstrap", h.BootstrapComplete, s.Nodes)
	fmt.Fprintf(b, "%-38s %10v\n", "bootstrap time", h.BootstrapTime.Round(time.Millisecond))
}

// liveFleet is a booted live cluster: the fleet, the members it was
// booted with, and the bootstrap outcome.
type liveFleet struct {
	fleet.Cluster
	members []fleet.Member
	head    liveHead
}

// template is the daemon config every member of a live fleet of this
// shape starts from: Newscast over tcp with the shape's view size and
// period. Experiments edit it before boot.
func (s liveShape) template() config.Config {
	t := config.Default()
	t.Node.Protocol = core.Newscast.String()
	t.Node.ViewSize = s.ViewSize
	t.Node.Period = s.Period
	t.Transport.Backend = "tcp"
	return t
}

// boot is the one boot path of every live experiment. It builds env's
// fleet from cfg (whose Template is usually the shape's template,
// edited), spawns shape.Nodes members from a single contact, and waits
// (bounded) for every view to complete. The clock starts after the
// spawn: under the subprocess driver forking a dozen daemons costs far
// more wall time than gossip convergence at T=20ms, and that cost is the
// driver's, not the protocol's. The caller closes the fleet.
func (env LiveEnv) boot(s liveShape, cfg fleet.Config) (*liveFleet, error) {
	cluster, err := env.cluster(cfg)
	if err != nil {
		return nil, err
	}
	members, err := spawnLinear(cluster, s.Nodes)
	if err != nil {
		_ = cluster.Close()
		return nil, err
	}
	f := &liveFleet{Cluster: cluster, members: members, head: liveHead{Driver: env.Driver}}
	if f.head.Driver == "" {
		f.head.Driver = fleet.DriverInproc
	}
	f.head.BootstrapComplete, f.head.BootstrapTime = waitCompleteViews(members, s.Period, s.phaseTimeout())
	return f, nil
}

// cluster builds the fleet for this environment around the scenario's
// node template.
func (env LiveEnv) cluster(cfg fleet.Config) (fleet.Cluster, error) {
	cfg.Collector = env.Collector
	cfg.Psnode = env.Psnode
	return fleet.New(env.Driver, cfg)
}

// spawnLinear boots n members: the first contactless, every later one
// bootstrapped from the first member's address (the single-contact shape
// of the paper's growing scenario). The later members come up through
// fleet.SpawnN's bounded-concurrency wave, so a 32-node subprocess fleet
// boots in a few fork+ready latencies instead of 32 sequential ones.
func spawnLinear(c fleet.Cluster, n int) ([]fleet.Member, error) {
	first, err := c.Spawn(nil)
	if err != nil {
		return nil, fmt.Errorf("scenario: spawn first member: %w", err)
	}
	members := append(make([]fleet.Member, 0, n), first)
	rest, err := fleet.SpawnN(c, n-1, []string{first.Addr()})
	members = append(members, rest...)
	if err != nil {
		return nil, fmt.Errorf("scenario: spawn members: %w", err)
	}
	return members, nil
}

// liveAddrs returns the gossip addresses of the live members as a set.
func liveAddrs(members []fleet.Member) map[string]bool {
	live := make(map[string]bool, len(members))
	for _, m := range members {
		if m.Alive() {
			live[m.Addr()] = true
		}
	}
	return live
}

// knownLivePeers counts how many distinct OTHER live members appear in
// m's view. A member whose view cannot be read (a subprocess dying under
// the poll) counts zero peers.
func knownLivePeers(m fleet.Member, live map[string]bool) int {
	view, err := m.View()
	if err != nil {
		return 0
	}
	seen := map[string]bool{}
	for _, d := range view {
		if live[d.Addr] && d.Addr != m.Addr() {
			seen[d.Addr] = true
		}
	}
	return len(seen)
}

// completeLiveViews counts live members whose view holds every other live
// member — the strongest convergence statement a cluster smaller than its
// view capacity admits.
func completeLiveViews(members []fleet.Member) (complete, liveCount int) {
	live := liveAddrs(members)
	for _, m := range members {
		if !m.Alive() {
			continue
		}
		if knownLivePeers(m, live) == len(live)-1 {
			complete++
		}
	}
	return complete, len(live)
}

// pollUntil calls done once per period until it reports true or the
// timeout expires, and returns how long that took. It is the one poll
// loop of the live experiments: done runs at least once, and once more
// after the deadline passes.
func pollUntil(period, timeout time.Duration, done func() bool) time.Duration {
	start := time.Now()
	deadline := start.Add(timeout)
	for !done() && !time.Now().After(deadline) {
		time.Sleep(period)
	}
	return time.Since(start)
}

// waitCompleteViews polls until every live member's view is complete or
// the timeout expires, returning the final complete count and how long
// the wait took.
func waitCompleteViews(members []fleet.Member, period, timeout time.Duration) (complete int, waited time.Duration) {
	waited = pollUntil(period, timeout, func() bool {
		var live int
		complete, live = completeLiveViews(members)
		return complete == live
	})
	return complete, waited
}

// strayDescriptors counts view entries across live members that point at
// addresses which were never part of the fleet — the contamination check:
// churn and attacks may leave dead members' descriptors aging out of
// views, but an address nobody ever owned must not appear.
func strayDescriptors(members []fleet.Member, ever map[string]bool) int {
	stray := 0
	for _, m := range members {
		if !m.Alive() {
			continue
		}
		view, err := m.View()
		if err != nil {
			continue
		}
		for _, d := range view {
			if !ever[d.Addr] {
				stray++
			}
		}
	}
	return stray
}

// liveTotals sums a snapshot round into cluster-wide protocol totals,
// wire totals and one merged latency histogram.
func liveTotals(snaps []metrics.NodeSnapshot) (exchanges, failures, served uint64, wire transport.Stats, lat transport.LatencySnapshot) {
	for _, s := range snaps {
		exchanges += s.Exchanges
		failures += s.Failures
		served += s.Served
		if s.Wire != nil {
			wire.Add(*s.Wire)
		}
		if s.Latency != nil {
			lat.Add(*s.Latency)
		}
	}
	return
}
