package scenario

import (
	"fmt"
	"strings"
	"time"

	"peersampling/internal/chaos"
	"peersampling/internal/fleet"
)

// The live churn experiment is the fleet-scale sibling of the simulated
// "churn" scenario and the harness the multi-process driver exists for:
// a live cluster in which a fraction of the members is killed outright
// every round — under the subprocess driver that is SIGKILL against real
// psnode processes, taking kernel connection state and in-flight
// exchanges with them — then replaced by fresh joiners bootstrapped from
// the survivors. The paper's claim under test is self-healing: the
// overlay must re-converge among survivors after every kill wave and
// absorb the replacements to full membership, with failed exchanges
// against dead peers staying routine noise.

// liveChurnPlan names the fault plan the experiment replays: two
// catastrophic 25% kill waves with quick respawns, the paper's
// self-healing experiment as a declarative timeline (see
// internal/chaos/plans). The experiment steps this plan one wave per
// round rather than running it on the wall clock, so the offsets only
// order the events.
const liveChurnPlan = "churn-waves"

// liveChurnParams is the fleet's shape plus the churn schedule from the
// named chaos plan.
type liveChurnParams struct {
	liveShape
	Plan         string  // chaos plan driving the kill waves
	KillFraction float64 // fraction of live members killed per wave (from the plan)
	Rounds       int     // kill/respawn rounds (the plan's kill-wave count)
}

// LiveChurnRound reports one kill/respawn wave.
type LiveChurnRound struct {
	// Killed is how many members this round removed; Respawned how many
	// fresh joiners replaced them.
	Killed    int
	Respawned int
	// SurvivorsReconverged reports whether every survivor's view was
	// complete (among survivors) before the respawn; AfterKill is how
	// long that took.
	SurvivorsReconverged bool
	AfterKill            time.Duration
	// FullReconverged reports whether the fleet reached full complete
	// views again after the respawn; AfterRespawn is how long that took.
	FullReconverged bool
	AfterRespawn    time.Duration
}

// LiveChurnResult reports the live churn experiment.
type LiveChurnResult struct {
	Params liveChurnParams
	liveHead

	Rounds []LiveChurnRound
	// KilledTotal is the total members killed across rounds.
	KilledTotal int
	// FinalCompleteViews / FinalLive is the end-state convergence count.
	FinalCompleteViews int
	FinalLive          int
	// Failures counts failed exchanges fleet-wide at the end — churn
	// guarantees some; none of them may have been fatal.
	Failures uint64
	// StrayDescriptors counts view entries naming addresses no fleet
	// member ever owned; must be 0 (dead members' addresses aging out of
	// views are legitimate and not counted).
	StrayDescriptors int
}

// Converged reports whether the fleet re-converged after every wave and
// ended at full, uncontaminated membership.
func (r *LiveChurnResult) Converged() bool {
	if r.BootstrapComplete != r.Params.Nodes {
		return false
	}
	for _, round := range r.Rounds {
		if !round.SurvivorsReconverged || !round.FullReconverged {
			return false
		}
	}
	return r.FinalLive == r.Params.Nodes &&
		r.FinalCompleteViews == r.FinalLive &&
		r.StrayDescriptors == 0
}

// Render implements Result.
func (r *LiveChurnResult) Render() string {
	var b strings.Builder
	r.header(&b, "Live churn: kill and respawn waves against a real fleet", r.Params.liveShape,
		fmt.Sprintf(", plan=%s: %.0f%% killed per round, %d rounds", r.Params.Plan, r.Params.KillFraction*100, r.Params.Rounds))
	for i, round := range r.Rounds {
		fmt.Fprintf(&b, "round %d: killed %d, survivors re-converged=%v in %v; respawned %d, full views=%v in %v\n",
			i+1, round.Killed, round.SurvivorsReconverged, round.AfterKill.Round(time.Millisecond),
			round.Respawned, round.FullReconverged, round.AfterRespawn.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "%-38s %10d\n", "members killed in total", r.KilledTotal)
	fmt.Fprintf(&b, "%-38s %7d/%2d\n", "final complete views", r.FinalCompleteViews, r.FinalLive)
	fmt.Fprintf(&b, "%-38s %10d\n", "failed exchanges absorbed", r.Failures)
	fmt.Fprintf(&b, "%-38s %10d\n", "stray view entries", r.StrayDescriptors)
	fmt.Fprintf(&b, "re-converged through churn: %v\n", r.Converged())
	return b.String()
}

// RunLiveChurn boots a fleet on env's fleet driver, then replays the
// churn-waves chaos plan against it: each plan wave kills a fraction of
// the live members (hard kill — no goodbye gossip) and respawns the same
// number against surviving contacts, with the scenario asserting
// re-convergence between the executor's steps. Kill victims are chosen
// by the executor's seeded RNG; with env.Collector set, respawned
// members register under fresh names and dead subprocess members stay
// visible as stale sources. The seed drives chaos victim choice; members
// seed their protocol randomness from their own addresses, and timing is
// real.
func RunLiveChurn(sc Scale, seed uint64, env LiveEnv) (*LiveChurnResult, error) {
	plan, err := chaos.Load(liveChurnPlan)
	if err != nil {
		return nil, err
	}
	waves := plan.KillWaves()
	p := liveChurnParams{
		liveShape:    deriveShape(sc, 50, 8, 24),
		Plan:         plan.Name,
		KillFraction: waves[0].Fraction,
		Rounds:       len(waves),
	}
	f, err := env.boot(p.liveShape, fleet.Config{Template: p.template()})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res := &LiveChurnResult{Params: p, liveHead: f.head}
	members := f.members
	ever := liveAddrs(members)
	// Dead members drop out of Cluster.Snapshot, so the executor captures
	// their failure counters at kill time (Applied.KilledFailures) to keep
	// the fleet-wide total honest — the killed members are exactly the
	// ones churn hit.
	var deadFailures uint64

	// The executor owns victim choice and respawn bootstrapping from here;
	// the scenario paces it with Step so each wave is measured between
	// kill and respawn. No Collector: the executor would register as an
	// extra source, and this experiment's collector contract is "the fleet
	// plus every respawn".
	ex := chaos.New(plan, f.Cluster, members, chaos.Options{Seed: mix(seed, 0x4C1)})
	defer ex.Close()

	for round := 0; round < p.Rounds; round++ {
		report := LiveChurnRound{}

		// Kill wave: the plan's next step removes ceil(fraction * live).
		ap, err := ex.Step()
		if err != nil {
			return nil, fmt.Errorf("scenario: churn round %d: %w", round+1, err)
		}
		deadFailures += ap.KilledFailures
		report.Killed = len(ap.Killed)
		res.KilledTotal += len(ap.Killed)
		members = ex.Members()

		// Survivors must re-converge among themselves.
		var complete int
		complete, report.AfterKill = waitCompleteViews(members, p.Period, p.phaseTimeout())
		_, live := completeLiveViews(members)
		report.SurvivorsReconverged = complete == live

		// Respawn wave: the derived step spawns as many fresh joiners as
		// the wave killed, bootstrapped from surviving contacts (up to
		// three, like a deployment's contact list).
		ap, err = ex.Step()
		if err != nil {
			return nil, fmt.Errorf("scenario: churn round %d: %w", round+1, err)
		}
		for _, m := range ap.Spawned {
			ever[m.Addr()] = true
		}
		report.Respawned = len(ap.Spawned)
		members = ex.Members()
		complete, report.AfterRespawn = waitCompleteViews(members, p.Period, p.phaseTimeout())
		_, live = completeLiveViews(members)
		report.FullReconverged = complete == live && live == p.Nodes

		res.Rounds = append(res.Rounds, report)
	}

	res.FinalCompleteViews, res.FinalLive = completeLiveViews(members)
	res.StrayDescriptors = strayDescriptors(members, ever)
	_, res.Failures, _, _, _ = liveTotals(f.Snapshot())
	res.Failures += deadFailures
	return res, nil
}
