package scenario

import (
	"fmt"
	"strings"
	"time"

	"peersampling/broadcast"
	"peersampling/internal/config"
	"peersampling/internal/core"
	"peersampling/internal/fleet"
	"peersampling/internal/metrics"
)

// The live broadcast experiment runs the paper's motivating application —
// epidemic dissemination over the peer sampling service — on a real
// fleet: every member attaches a broadcast workload engine fed by its own
// getPeer(), the driver injects one rumor into a single member over the
// transport's app-payload frames, then a livechurn-style kill wave
// removes a fraction of the members mid-spread. The claim under test is
// the service's headline robustness story: the rumor must still reach
// every survivor, with deliveries to dead peers absorbed as routine
// failures.

// liveBroadcastParams derives the fleet's shape from a simulation Scale.
type liveBroadcastParams struct {
	Nodes        int           // fleet size at full strength
	ViewSize     int           // view capacity, capped below fleet size
	Period       time.Duration // gossip and workload round length T
	Fanout       int           // rumor pushes per round per infected node
	KillFraction float64       // fraction of members killed mid-spread
}

func liveBroadcastDerive(sc Scale) liveBroadcastParams {
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
	return liveBroadcastParams{
		Nodes:        nodes,
		ViewSize:     view,
		Period:       20 * time.Millisecond,
		Fanout:       2,
		KillFraction: 0.25,
	}
}

// LiveBroadcastResult reports the live dissemination experiment.
type LiveBroadcastResult struct {
	Params liveBroadcastParams
	// Driver names the fleet driver that ran the cluster.
	Driver string

	// BootstrapComplete counts complete views after bootstrap (must be
	// Nodes for the spread measurement to mean anything).
	BootstrapComplete int
	BootstrapTime     time.Duration
	// Killed is how many members the mid-spread kill wave removed.
	Killed int
	// Coverage is the infected fraction among live members per poll
	// round (one poll per period, starting right after the seed).
	Coverage []float64
	// PollsTo99 is the first poll at which coverage reached 99%;
	// -1 when it never did. TimeToFull is the wall-clock time from seed
	// to full survivor coverage (or the measurement timeout).
	PollsTo99  int
	TimeToFull time.Duration
	// Sent / Received / Failures are the fleet-wide workload totals at
	// the end; Failures counts deliveries into dead peers, which the kill
	// wave guarantees.
	Sent, Received, Failures uint64

	rows []metrics.LongRow
}

// ID implements Result.
func (r *LiveBroadcastResult) ID() string { return "livebroadcast" }

// Converged reports whether the fleet bootstrapped fully and the rumor
// reached at least 99% of the survivors.
func (r *LiveBroadcastResult) Converged() bool {
	if r.BootstrapComplete != r.Params.Nodes || len(r.Coverage) == 0 {
		return false
	}
	return r.Coverage[len(r.Coverage)-1] >= 0.99
}

// Render implements Result.
func (r *LiveBroadcastResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Live broadcast: epidemic rumor spread across a real fleet under a kill wave\n")
	fmt.Fprintf(&b, "fleet: %d nodes (%s driver), c=%d, T=%v, fanout=%d, %.0f%% killed mid-spread\n",
		r.Params.Nodes, r.Driver, r.Params.ViewSize, r.Params.Period,
		r.Params.Fanout, r.Params.KillFraction*100)
	fmt.Fprintf(&b, "%-38s %10s\n", "", "value")
	fmt.Fprintf(&b, "%-38s %7d/%2d\n", "complete views after bootstrap", r.BootstrapComplete, r.Params.Nodes)
	fmt.Fprintf(&b, "%-38s %10v\n", "bootstrap time", r.BootstrapTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-38s %10d\n", "members killed mid-spread", r.Killed)
	if len(r.Coverage) > 0 {
		fmt.Fprintf(&b, "%-38s %9.0f%%\n", "final rumor coverage (survivors)", r.Coverage[len(r.Coverage)-1]*100)
	}
	if r.PollsTo99 >= 0 {
		fmt.Fprintf(&b, "%-38s %10d\n", "polls to 99% coverage", r.PollsTo99)
	} else {
		fmt.Fprintf(&b, "%-38s %10s\n", "polls to 99% coverage", "never")
	}
	fmt.Fprintf(&b, "%-38s %10v\n", "time to full coverage", r.TimeToFull.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-38s %10d\n", "app messages sent", r.Sent)
	fmt.Fprintf(&b, "%-38s %10d\n", "app messages received", r.Received)
	fmt.Fprintf(&b, "%-38s %10d\n", "app delivery failures absorbed", r.Failures)
	fmt.Fprintf(&b, "rumor survived the kill wave: %v\n", r.Converged())
	return b.String()
}

// CSV implements CSVer: node,cycle,metric,value with per-node infection
// state and fleet-wide coverage per poll round.
func (r *LiveBroadcastResult) CSV() map[string]string {
	return map[string]string{"livebroadcast_spread": metrics.LongCSV("node", r.rows)}
}

// RunLiveBroadcast boots a fleet whose members all run a broadcast
// workload engine, injects one rumor into the first member, kills
// KillFraction of the other members mid-spread, and polls the workload
// counters until the rumor covers every survivor (or the measurement
// deadline passes). The seed drives victim choice; timing is real.
func RunLiveBroadcast(sc Scale, seed uint64, env LiveEnv) (*LiveBroadcastResult, error) {
	p := liveBroadcastDerive(sc)
	res := &LiveBroadcastResult{Params: p, Driver: env.DriverName(), PollsTo99: -1}
	rng := newRand(mix(seed, 0x4CB))

	cluster, err := env.cluster(fleet.Config{
		Protocol: core.Newscast,
		ViewSize: p.ViewSize,
		Period:   p.Period,
		Backend:  "tcp",
		Workload: config.WorkloadSection{
			Kind:   config.WorkloadBroadcast,
			Period: p.Period,
			Fanout: p.Fanout,
			Mode:   "infect-forever",
		},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	members, err := spawnLinear(cluster, p.Nodes)
	if err != nil {
		return nil, err
	}
	phaseTimeout := 30*p.Period*time.Duration(p.Nodes) + 5*time.Second
	res.BootstrapComplete, res.BootstrapTime = waitCompleteViews(members, p.Period, phaseTimeout)

	seeder, err := newAppSeeder()
	if err != nil {
		return nil, err
	}
	defer seeder.Close()
	source := members[0]
	if err := seeder.send(source.Addr(), broadcast.Topic, []byte("the-rumor")); err != nil {
		return nil, err
	}

	// Kill wave, sparing the source: extinguishing the rumor by killing
	// its only holder would measure scheduling luck, not dissemination.
	victims := make([]fleet.Member, 0, len(members)-1)
	for _, m := range members[1:] {
		if m.Alive() {
			victims = append(victims, m)
		}
	}
	kill := (len(victims)*int(p.KillFraction*100) + 99) / 100
	if kill < 1 {
		kill = 1
	}
	rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	for _, victim := range victims[:kill] {
		if err := cluster.Kill(victim); err != nil {
			return nil, fmt.Errorf("scenario: livebroadcast kill %s: %w", victim.Name(), err)
		}
	}
	res.Killed = kill

	// Poll the spread once per period until full survivor coverage.
	start := time.Now()
	deadline := start.Add(phaseTimeout)
	for poll := 0; ; poll++ {
		snaps := liveAppSnapshots(members)
		infected := 0
		for _, s := range snaps {
			res.rows = append(res.rows, metrics.LongRow{
				Key: s.Node, Cycle: poll, Metric: "infected", Value: s.App.Infected,
			})
			if s.App.Infected >= 1 {
				infected++
			}
		}
		coverage := 0.0
		if len(snaps) > 0 {
			coverage = float64(infected) / float64(len(snaps))
		}
		res.Coverage = append(res.Coverage, coverage)
		res.rows = append(res.rows, metrics.LongRow{
			Key: "fleet", Cycle: poll, Metric: "coverage", Value: coverage,
		})
		if coverage >= 0.99 && res.PollsTo99 < 0 {
			res.PollsTo99 = poll
		}
		if coverage >= 1 || time.Now().After(deadline) {
			res.TimeToFull = time.Since(start)
			break
		}
		time.Sleep(p.Period)
	}

	res.Sent, res.Received, res.Failures = liveAppTotals(liveAppSnapshots(members))
	return res, nil
}
