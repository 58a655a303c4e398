package scenario

import (
	"fmt"
	"strings"

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

// LiveBootstrapResult reports convergence time and wire cost of
// bootstrapping a live cluster from a single contact. The embedded
// liveHead's BootstrapComplete and BootstrapTime are the measurement:
// how many views completed, and how long it took from full fleet to
// full views.
type LiveBootstrapResult struct {
	Params liveShape
	liveHead

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

// Converged reports whether every node's view reached every other member.
func (r *LiveBootstrapResult) Converged() bool {
	return r.BootstrapComplete == r.Params.Nodes
}

// Render implements Result.
func (r *LiveBootstrapResult) Render() string {
	var b strings.Builder
	r.header(&b, "Live bootstrap: single-contact cluster convergence over loopback TCP", r.Params, ", one contact node")
	fmt.Fprintf(&b, "%-38s %10d\n", "active exchanges completed", r.Exchanges)
	fmt.Fprintf(&b, "%-38s %10d\n", "exchanges failed", r.Failures)
	fmt.Fprintf(&b, "%-38s %10d\n", "passive exchanges served", r.Served)
	fmt.Fprintf(&b, "%-38s %10d\n", "connections dialed", r.Wire.Dials)
	fmt.Fprintf(&b, "%-38s %10d\n", "bytes on the wire (out)", r.Wire.BytesOut)
	if r.Latency.Count > 0 {
		fmt.Fprintf(&b, "%-38s %7.2fms\n", "exchange latency p50", r.Latency.Quantile(0.50)*1000)
		fmt.Fprintf(&b, "%-38s %7.2fms\n", "exchange latency p99", r.Latency.Quantile(0.99)*1000)
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
	p := deriveShape(sc, 50, 8, 24)
	f, err := env.boot(p, fleet.Config{Template: p.template()})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res := &LiveBootstrapResult{Params: p, liveHead: f.head}

	// One final snapshot round is the totals: the cluster keeps gossiping
	// while it is taken, so cross-node sums are consistent only to within
	// the exchanges in flight — the same contract as a live scrape.
	res.Exchanges, res.Failures, res.Served, res.Wire, res.Latency = liveTotals(f.Snapshot())
	return res, nil
}
