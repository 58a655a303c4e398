package scenario

import (
	"fmt"
	"strings"
	"time"

	"peersampling/internal/chaos"
	"peersampling/internal/fleet"
)

// The hostile-network experiment runs a LIVE cluster over real loopback
// TCP — unlike the cycle-based experiments, it exercises the transport's
// hardening layer (connection caps, keep-alive budgets) against the two
// classic resource attacks the limits exist for:
//
//   - connection flood: attackers dial the victim as fast as they can and
//     hold whatever they get; without a cap this exhausts fds and
//     goroutines before the gossip layer sees a frame.
//   - slowloris: admitted connections never send their opening frame,
//     holding a serve slot until the first-frame window expires.
//
// The claim under test is the ROADMAP's: bounded resource use at the
// listener, with the overlay above it still converging. The cluster runs
// on either fleet driver — under subprocess the flood hits a real psnode
// process's listener. Timings (and therefore the exact counter values)
// are real-network nondeterministic; the invariants reported — rejects
// observed, evictions reclaiming slots, views still complete — are not.

// hostilePlan names the fault plan the experiment replays: a
// connection-flood + slowloris attack in which three attacker
// goroutines hold sockets open against the member named "victim"
// without ever sending a frame, for 1.5 seconds (see
// internal/chaos/plans). The experiment names its target member
// "victim" so the plan can address it.
const hostilePlan = "hostile-flood"

// hostileParams is the cluster's shape (necessarily much smaller than
// the paper's 10^4 — every node owns a real listener), the listener
// limits every member runs, and the attack's shape from the named chaos
// plan.
type hostileParams struct {
	liveShape
	MaxConns  int           // every listener's cap, deliberately tight
	KeepAlive time.Duration // full keep-alive budget (shrunken budgets derive)
	Plan      string        // chaos plan driving the attack
	Attack    time.Duration // flood duration (from the plan)
	Flooders  int           // concurrent attacker goroutines (from the plan)
}

// HostileResult reports the hostile-network experiment: listener counters
// on the attacked node and overlay health across the cluster.
type HostileResult struct {
	Params hostileParams
	liveHead

	FloodDials uint64 // connections the attackers opened (or tried)
	// Victim listener counters over the whole run.
	AcceptRejects      uint64
	KeepAliveEvictions uint64
	// VictimExchanges counts active exchanges the victim completed while
	// under attack — its outbound gossip does not pass through its own
	// listener, so it must keep making progress.
	VictimExchanges uint64
	// CompleteViews counts nodes whose post-attack view contains every
	// other live node (the strongest convergence statement a cluster
	// smaller than its view capacity admits).
	CompleteViews int
	// StrayDescriptors counts view entries pointing at addresses that are
	// not cluster members — attackers never inject any, so this must be 0.
	StrayDescriptors int
}

// Converged reports whether every node's view survived the attack
// complete and uncontaminated.
func (r *HostileResult) Converged() bool {
	return r.CompleteViews == r.Params.Nodes && r.StrayDescriptors == 0
}

// Render implements Result.
func (r *HostileResult) Render() string {
	var b strings.Builder
	r.header(&b, "Hostile network: connection flood + slowloris against a live cluster", r.Params.liveShape,
		fmt.Sprintf(", max-conns=%d, keepalive=%v", r.Params.MaxConns, r.Params.KeepAlive))
	fmt.Fprintf(&b, "attack: plan=%s: %d flooders for %v -> %d connections thrown at one node\n",
		r.Params.Plan, r.Params.Flooders, r.Params.Attack, r.FloodDials)
	fmt.Fprintf(&b, "%-38s %10d\n", "accepts rejected at the cap", r.AcceptRejects)
	fmt.Fprintf(&b, "%-38s %10d\n", "slowloris conns evicted", r.KeepAliveEvictions)
	fmt.Fprintf(&b, "%-38s %10d\n", "victim exchanges during attack", r.VictimExchanges)
	fmt.Fprintf(&b, "%-38s %7d/%2d\n", "complete views after attack", r.CompleteViews, r.Params.Nodes)
	fmt.Fprintf(&b, "%-38s %10d\n", "stray view entries", r.StrayDescriptors)
	fmt.Fprintf(&b, "converged under attack: %v\n", r.Converged())
	return b.String()
}

// RunHostile builds a live cluster on env's fleet driver in which EVERY
// listener runs the same tight limits (cap of Nodes conns, sub-second
// keep-alive — proving legitimate gossip fits under hostile-grade caps),
// attacks one node with a connection flood whose connections double as
// slowloris peers (they never send a frame), and measures whether the
// hardening holds: rejects at the cap, evictions reclaiming slots, and
// the overlay above still converging. With env.Collector set, node 0 is
// registered as "victim" and the rest as "peerNN", so serving the
// collector while the experiment runs (see cmd/experiments -metrics-addr)
// exposes the attack as a live time series — accept rejects and evictions
// climbing on the victim while every node's view-size gauge holds. The
// seed drives the chaos plan's victim choice; members seed their protocol
// randomness from their own addresses, and socket timing is real.
func RunHostile(sc Scale, seed uint64, env LiveEnv) (*HostileResult, error) {
	plan, err := chaos.Load(hostilePlan)
	if err != nil {
		return nil, err
	}
	shape := deriveShape(sc, 50, 8, 24)
	flood, _ := plan.FirstFlood()
	p := hostileParams{
		liveShape: shape,
		MaxConns:  shape.Nodes, // tight: the flood WILL hit the cap
		KeepAlive: 400 * time.Millisecond,
		Plan:      plan.Name,
		Attack:    flood.For,
		Flooders:  flood.Flooders,
	}
	tmpl := shape.template()
	tmpl.Transport.MaxConns = p.MaxConns
	tmpl.Transport.KeepAlive = p.KeepAlive
	f, err := env.boot(shape, fleet.Config{
		Template: tmpl,
		Name: func(i int) string {
			if i == 0 {
				return "victim"
			}
			return fmt.Sprintf("peer%02d", i)
		},
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res := &HostileResult{Params: p, liveHead: f.head}
	members := f.members
	victim := members[0]
	ever := liveAddrs(members)

	// Attack: the plan's flood event. Flooders dial the victim and hold
	// everything they get open without ever writing a byte — each admitted
	// connection is a slowloris occupying a serve slot until the
	// first-frame window evicts it, and everything beyond the cap is
	// rejected on accept. The executor's Step blocks for the attack's
	// whole duration.
	victimBefore, err := victim.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("scenario: hostile: victim snapshot: %w", err)
	}
	ex := chaos.New(plan, f.Cluster, members, chaos.Options{Seed: mix(seed, 0x05711E)})
	defer ex.Close()
	attack, err := ex.Step()
	if err != nil {
		return nil, fmt.Errorf("scenario: hostile: %w", err)
	}
	victimAfter, err := victim.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("scenario: hostile: victim snapshot after attack: %w", err)
	}

	// Post-attack: give the overlay a short settle window, then measure.
	res.CompleteViews, _ = waitCompleteViews(members, p.Period, 10*p.Period*time.Duration(p.Nodes))
	res.FloodDials = attack.FloodDials
	if victimAfter.Wire != nil {
		res.AcceptRejects = victimAfter.Wire.AcceptRejects
		res.KeepAliveEvictions = victimAfter.Wire.KeepAliveEvictions
	}
	res.VictimExchanges = victimAfter.Exchanges - victimBefore.Exchanges
	res.StrayDescriptors = strayDescriptors(members, ever)
	return res, nil
}
