package scenario

import (
	"fmt"
	"strings"
	"time"

	"peersampling/broadcast"
	"peersampling/internal/chaos"
	"peersampling/internal/config"
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

// liveBroadcastPlan names the fault plan whose one kill wave lands
// mid-spread (see internal/chaos/plans). The experiment steps it once,
// right after seeding the rumor, so the plan's offset only orders it.
const liveBroadcastPlan = "gateway-kill"

// liveBroadcastParams is the fleet's shape plus the workload's fanout
// and the kill wave from the named chaos plan.
type liveBroadcastParams struct {
	liveShape
	Fanout       int     // rumor pushes per round per infected node
	KillFraction float64 // fraction of members killed mid-spread (from the plan)
}

// LiveBroadcastResult reports the live dissemination experiment.
type LiveBroadcastResult struct {
	Params liveBroadcastParams
	liveHead

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
	r.header(&b, "Live broadcast: epidemic rumor spread across a real fleet under a kill wave", r.Params.liveShape,
		fmt.Sprintf(", fanout=%d, %.0f%% killed mid-spread", r.Params.Fanout, r.Params.KillFraction*100))
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
// workload engine, injects one rumor into the first member, replays the
// gateway-kill plan's wave against the other members mid-spread, and
// polls the workload counters until the rumor covers every survivor (or
// the measurement deadline passes). The seed drives victim choice;
// timing is real.
func RunLiveBroadcast(sc Scale, seed uint64, env LiveEnv) (*LiveBroadcastResult, error) {
	plan, err := chaos.Load(liveBroadcastPlan)
	if err != nil {
		return nil, err
	}
	p := liveBroadcastParams{
		liveShape:    deriveShape(sc, 50, 8, 24),
		Fanout:       2,
		KillFraction: plan.KillWaves()[0].Fraction,
	}
	tmpl := p.template()
	tmpl.Workload.Kind = config.WorkloadBroadcast
	tmpl.Workload.Period = p.Period
	tmpl.Workload.Fanout = p.Fanout
	tmpl.Workload.Mode = "infect-forever"
	f, err := env.boot(p.liveShape, fleet.Config{Template: tmpl})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res := &LiveBroadcastResult{Params: p, liveHead: f.head, PollsTo99: -1}
	members := f.members

	seeder, err := newAppSeeder()
	if err != nil {
		return nil, err
	}
	defer seeder.Close()
	if err := seeder.send(members[0].Addr(), broadcast.Topic, []byte("the-rumor")); err != nil {
		return nil, err
	}

	// Kill wave, sparing the source by leaving it out of the executor's
	// membership: extinguishing the rumor by killing its only holder
	// would measure scheduling luck, not dissemination.
	wave, err := chaos.New(plan, f.Cluster, members[1:], chaos.Options{Seed: mix(seed, 0x4CB)}).Step()
	if err != nil {
		return nil, fmt.Errorf("scenario: livebroadcast: %w", err)
	}
	res.Killed = len(wave.Killed)

	// Poll the spread once per period until full survivor coverage.
	res.TimeToFull = pollUntil(p.Period, p.phaseTimeout(), func() bool {
		poll := len(res.Coverage)
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
		return coverage >= 1
	})

	res.Sent, res.Received, res.Failures = liveAppTotals(liveAppSnapshots(members))
	return res, nil
}
