package scenario

import (
	"fmt"
	"strings"
	"time"

	"peersampling/internal/core"
	"peersampling/internal/fleet"
	"peersampling/internal/transport"
)

// The live bootstrap experiment is the runtime sibling of the simulator's
// growing scenario (Section 5.1): a cluster of real nodes, every joiner
// initialised with a single contact — the first node — and left to gossip
// until each view holds every other member. Where the simulator measures
// the resulting topology, this experiment measures the deployment-facing
// questions: how long bootstrap convergence takes in real time, and what
// it costs on the wire. It runs on either fleet driver: daemons
// in this process, or forked psnode processes observed through their
// control agents. Timings are real-network nondeterministic; the
// invariants reported (full convergence, no failed exchanges against a
// healthy cluster being fatal) are not.

// liveBootstrapParams derives the live cluster's shape from a simulation
// Scale: small enough that every node can own a real listener (and, under
// the subprocess driver, a real process).
type liveBootstrapParams struct {
	Nodes    int           // live cluster size
	ViewSize int           // view capacity, capped below cluster size
	Period   time.Duration // gossip period T
}

func liveBootstrapDerive(sc Scale) liveBootstrapParams {
	nodes := sc.N / 50
	if nodes < 8 {
		nodes = 8
	}
	if nodes > 24 {
		nodes = 24
	}
	view := sc.ViewSize
	if view > nodes-1 {
		view = nodes - 1
	}
	return liveBootstrapParams{
		Nodes:    nodes,
		ViewSize: view,
		Period:   20 * time.Millisecond,
	}
}

// LiveBootstrapResult reports convergence time and wire cost of
// bootstrapping a live cluster from a single contact.
type LiveBootstrapResult struct {
	Params liveBootstrapParams
	// Driver names the fleet driver that ran the cluster.
	Driver string

	// CompleteViews counts nodes whose final view contains every other
	// member; convergence means all of them.
	CompleteViews int
	// ConvergeTime is the wall-clock time from starting the cluster until
	// every view was complete (or the bounded wait expired).
	ConvergeTime time.Duration
	// Cluster-wide totals over the run.
	Exchanges uint64
	Failures  uint64
	Served    uint64
	// Wire sums every node's transport counters; BytesOut across the
	// cluster is the total bootstrap traffic.
	Wire transport.Stats
	// Latency merges every node's exchange round-trip histogram.
	Latency transport.LatencySnapshot
}

// ID implements Result.
func (r *LiveBootstrapResult) ID() string { return "bootstrap" }

// Converged reports whether every node's view reached every other member.
func (r *LiveBootstrapResult) Converged() bool {
	return r.CompleteViews == r.Params.Nodes
}

// Render implements Result.
func (r *LiveBootstrapResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Live bootstrap: single-contact cluster convergence over loopback TCP\n")
	fmt.Fprintf(&b, "cluster: %d nodes (%s driver), c=%d, T=%v, one contact node\n",
		r.Params.Nodes, r.Driver, r.Params.ViewSize, r.Params.Period)
	fmt.Fprintf(&b, "%-34s %10s\n", "", "value")
	fmt.Fprintf(&b, "%-34s %7d/%2d\n", "complete views", r.CompleteViews, r.Params.Nodes)
	fmt.Fprintf(&b, "%-34s %10v\n", "time to full views", r.ConvergeTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-34s %10d\n", "active exchanges completed", r.Exchanges)
	fmt.Fprintf(&b, "%-34s %10d\n", "exchanges failed", r.Failures)
	fmt.Fprintf(&b, "%-34s %10d\n", "passive exchanges served", r.Served)
	fmt.Fprintf(&b, "%-34s %10d\n", "connections dialed", r.Wire.Dials)
	fmt.Fprintf(&b, "%-34s %10d\n", "bytes on the wire (out)", r.Wire.BytesOut)
	if r.Latency.Count > 0 {
		fmt.Fprintf(&b, "%-34s %7.2fms\n", "exchange latency p50", r.Latency.Quantile(0.50)*1000)
		fmt.Fprintf(&b, "%-34s %7.2fms\n", "exchange latency p99", r.Latency.Quantile(0.99)*1000)
	}
	fmt.Fprintf(&b, "converged: %v\n", r.Converged())
	return b.String()
}

// RunLiveBootstrap boots the cluster on env's fleet driver, waits
// (bounded) for every view to complete and reports totals from a final
// snapshot round. With env.Collector set, every member is registered
// before gossip starts, so a scrape or dump attached by cmd/experiments
// observes the whole convergence transient — through the remote Source
// when the members are real processes. Bootstrap runs no chaos plan,
// so the seed chooses nothing: members seed their protocol randomness
// from their own addresses, and socket timing is real.
func RunLiveBootstrap(sc Scale, seed uint64, env LiveEnv) (*LiveBootstrapResult, error) {
	p := liveBootstrapDerive(sc)
	res := &LiveBootstrapResult{Params: p, Driver: env.DriverName()}

	cluster, err := env.cluster(fleet.Config{
		Protocol: core.Newscast,
		ViewSize: p.ViewSize,
		Period:   p.Period,
		Backend:  "tcp",
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	members, err := spawnLinear(cluster, p.Nodes)
	if err != nil {
		return nil, err
	}
	// The clock starts after the spawn: under the subprocess driver,
	// forking a dozen daemons costs far more wall time than gossip
	// convergence at T=20ms, and that cost is the driver's, not the
	// protocol's. Gossip already runs while later members boot, so this
	// measures "time from full fleet to full views" on either driver.
	start := time.Now()
	res.CompleteViews, _ = waitCompleteViews(members, p.Period, 20*p.Period*time.Duration(p.Nodes))
	res.ConvergeTime = time.Since(start)

	// One final snapshot round is the totals: the cluster keeps gossiping
	// while it is taken, so cross-node sums are consistent only to within
	// the exchanges in flight — the same contract as a live scrape.
	res.Exchanges, res.Failures, res.Served, res.Wire, res.Latency = liveTotals(cluster.Snapshot())
	return res, nil
}
