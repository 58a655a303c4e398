package scenario

import (
	"context"
	"fmt"
	"strings"
	"time"

	"peersampling/internal/chaos"
	"peersampling/internal/fleet"
	"peersampling/internal/loop"
	"peersampling/internal/metrics"
)

// The partition-heal experiment replays the partition-heal chaos plan
// against a live fleet: every link first gets injected latency, then a
// random half of the fleet is cut off (both directions) long enough for
// cross-island knowledge to go stale, and both rules expire on their
// own. The paper's claim under test is the sampling service's recovery:
// cut links make exchanges fail (absorbed, never fatal), each island
// keeps gossiping internally, and once the rules expire the overlay
// re-converges to fresh fleet-wide knowledge — observed as a freshness
// trace aligned with the plan's chaos_event timeline.
//
// Complete views alone cannot see a partition here: a view capacity of
// Nodes-1 means stale cross-island descriptors persist for the whole
// cut. Freshness — a (member, peer) pair counts only when the peer
// appears in the member's view at a low hop count — drops sharply while
// the cut holds and recovers after the heal, which is the re-convergence
// signal Converged asserts.

// livePartitionPlan names the fault plan the experiment replays:
// partition-then-heal under injected latency (see internal/chaos/plans).
// Every link gets 2ms of extra one-way delay for the whole window, and
// 200ms in a random half of the fleet is cut off (both directions) for
// 1.3 seconds. Both rules expire on their own — the plan ends with the
// network whole again, so the experiment can assert re-convergence
// after the heal.
const livePartitionPlan = "partition-heal"

// livePartitionParams is the fleet's shape plus the freshness gauge's
// settings; the fault timeline comes from the named chaos plan.
type livePartitionParams struct {
	liveShape
	Plan        string        // chaos plan driving the faults
	FreshHop    int           // max hop count for a view entry to count as fresh
	SampleEvery time.Duration // freshness-trace sampling interval
}

// PartitionSample is one point of the freshness trace.
type PartitionSample struct {
	// ElapsedMillis is the sample time relative to the plan's start.
	ElapsedMillis int64
	// FreshPairs counts (member, peer) pairs where the live member's view
	// holds the live peer at hop <= FreshHop.
	FreshPairs int
	// ActiveRules is how many fault rules were installed at sample time.
	ActiveRules int
}

// LivePartitionResult reports the partition-heal experiment.
type LivePartitionResult struct {
	Params livePartitionParams
	liveHead

	// FreshBefore / MinFreshDuring / FreshAfter are the freshness-pair
	// counts at full convergence, at the worst point while fault rules
	// were active, and after the heal settled.
	FreshBefore    int
	MinFreshDuring int
	FreshAfter     int
	// FailuresDelta counts failed exchanges the fleet absorbed over the
	// plan — the cut links guarantee some.
	FailuresDelta uint64
	// FinalCompleteViews / FinalLive is the end-state convergence count.
	FinalCompleteViews int
	FinalLive          int
	// StepsApplied / StepsCompiled report the executor's timeline
	// progress; ActiveRulesEnd must be 0 after every rule expired.
	StepsApplied   int
	StepsCompiled  int
	ActiveRulesEnd int
	// Trace is the freshness time series; Events the plan's applied
	// timeline, both on the same elapsed-milliseconds time base.
	Trace  []PartitionSample
	Events []metrics.ChaosEvent
	// StartUnixMillis anchors the Events' wall-clock stamps to the trace.
	StartUnixMillis int64
}

// Converged reports whether the fleet demonstrably lost fresh
// cross-island knowledge under the cut and regained it after the rules
// expired, with the failure noise absorbed.
func (r *LivePartitionResult) Converged() bool {
	return r.BootstrapComplete == r.Params.Nodes &&
		r.FailuresDelta > 0 &&
		r.MinFreshDuring < r.FreshBefore &&
		r.FreshAfter > r.MinFreshDuring &&
		r.FinalLive == r.Params.Nodes &&
		r.FinalCompleteViews == r.FinalLive &&
		r.StepsApplied == r.StepsCompiled &&
		r.ActiveRulesEnd == 0
}

// Render implements Result.
func (r *LivePartitionResult) Render() string {
	var b strings.Builder
	r.header(&b, "Partition heal: cut half the fleet apart from a named fault plan, then recover", r.Params.liveShape,
		fmt.Sprintf(", plan=%s (fresh = hop <= %d)", r.Params.Plan, r.Params.FreshHop))
	full := r.Params.Nodes * (r.Params.Nodes - 1)
	fmt.Fprintf(&b, "%-38s %7d/%2d\n", "fresh pairs before the plan", r.FreshBefore, full)
	fmt.Fprintf(&b, "%-38s %7d/%2d\n", "fresh pairs at the worst point", r.MinFreshDuring, full)
	fmt.Fprintf(&b, "%-38s %7d/%2d\n", "fresh pairs after the heal", r.FreshAfter, full)
	for _, e := range r.Events {
		fmt.Fprintf(&b, "plan step %d: %-9s at +%4dms touching %d\n",
			e.Seq, e.Action, e.UnixMillis-r.StartUnixMillis, e.Targets)
	}
	fmt.Fprintf(&b, "%-38s %10d\n", "failed exchanges absorbed", r.FailuresDelta)
	fmt.Fprintf(&b, "%-38s %7d/%2d\n", "final complete views", r.FinalCompleteViews, r.FinalLive)
	fmt.Fprintf(&b, "%-38s %7d/%2d\n", "plan steps applied", r.StepsApplied, r.StepsCompiled)
	fmt.Fprintf(&b, "%-38s %10d\n", "fault rules left installed", r.ActiveRulesEnd)
	fmt.Fprintf(&b, "re-converged after heal: %v\n", r.Converged())
	return b.String()
}

// CSV implements CSVer: the freshness trace and the chaos events on one
// elapsed-milliseconds time base, so the fault timeline plots directly
// against the convergence curve.
func (r *LivePartitionResult) CSV() map[string]string {
	var rows []metrics.LongRow
	for i, s := range r.Trace {
		rows = append(rows,
			metrics.LongRow{Key: "fleet", Cycle: i, Metric: "elapsed_ms", Value: float64(s.ElapsedMillis)},
			metrics.LongRow{Key: "fleet", Cycle: i, Metric: "fresh_pairs", Value: float64(s.FreshPairs)},
			metrics.LongRow{Key: "fleet", Cycle: i, Metric: "chaos_active_rules", Value: float64(s.ActiveRules)},
		)
	}
	for _, e := range r.Events {
		rows = append(rows,
			metrics.LongRow{Key: "chaos", Cycle: e.Seq, Metric: "chaos_event", Value: float64(e.UnixMillis - r.StartUnixMillis)},
			metrics.LongRow{Key: "chaos", Cycle: e.Seq, Metric: "chaos_event_" + e.Action, Value: float64(e.Targets)},
		)
	}
	return map[string]string{"partitionheal_trace": metrics.LongCSV("source", rows)}
}

// freshPairs counts (member, peer) pairs where the live member's view
// holds the live peer at hop <= maxHop — the freshness gauge complete
// views cannot provide while stale descriptors linger.
func freshPairs(members []fleet.Member, maxHop int) int {
	live := liveAddrs(members)
	pairs := 0
	for _, m := range members {
		if !m.Alive() {
			continue
		}
		view, err := m.View()
		if err != nil {
			continue
		}
		seen := map[string]bool{}
		for _, d := range view {
			if live[d.Addr] && d.Addr != m.Addr() && int(d.Hop) <= maxHop && !seen[d.Addr] {
				seen[d.Addr] = true
				pairs++
			}
		}
	}
	return pairs
}

// RunLivePartition boots a fleet on env's fleet driver and replays the
// partition-heal chaos plan against it on the real clock, sampling a
// fleet-wide freshness trace throughout. The executor pushes its rules
// through Cluster.SetFaultRules, so under the subprocess driver the cut
// reaches real psnode processes via their control agents. The seed
// drives the chaos plan's island choice; timing is real.
func RunLivePartition(sc Scale, seed uint64, env LiveEnv) (*LivePartitionResult, error) {
	plan, err := chaos.Load(livePartitionPlan)
	if err != nil {
		return nil, err
	}
	p := livePartitionParams{
		liveShape:   deriveShape(sc, 50, 8, 12),
		Plan:        plan.Name,
		FreshHop:    15,
		SampleEvery: 50 * time.Millisecond,
	}
	f, err := env.boot(p.liveShape, fleet.Config{Template: p.template()})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res := &LivePartitionResult{Params: p, liveHead: f.head}
	members := f.members

	// Let freshness saturate before the plan starts: the baseline the
	// partition must demonstrably pull down.
	pollUntil(p.Period, p.phaseTimeout(), func() bool {
		res.FreshBefore = max(res.FreshBefore, freshPairs(members, p.FreshHop))
		return res.FreshBefore == p.Nodes*(p.Nodes-1)
	})
	_, failuresBefore, _, _, _ := liveTotals(f.Snapshot())

	// The executor replays the plan on the real clock while the sampler
	// records the freshness trace. With env.Collector set the executor
	// also registers as a "chaos" source, so live dumps carry the same
	// chaos_event rows this result's CSV does.
	ex := chaos.New(plan, f.Cluster, members, chaos.Options{
		Seed:      mix(seed, 0x9A87),
		Collector: env.Collector,
	})
	defer ex.Close()
	res.StepsCompiled = ex.Steps()
	start := time.Now()
	res.StartUnixMillis = start.UnixMilli()

	sampler := loop.Every(func() time.Duration { return p.SampleEvery }, func() bool {
		res.Trace = append(res.Trace, PartitionSample{
			ElapsedMillis: time.Since(start).Milliseconds(),
			FreshPairs:    freshPairs(members, p.FreshHop),
			ActiveRules:   ex.ActiveRules(),
		})
		return true
	})
	runErr := ex.Run(context.Background())
	sampler.Stop()
	if runErr != nil {
		return nil, fmt.Errorf("scenario: partitionheal: %w", runErr)
	}

	// The worst freshness while any fault rule was active.
	res.MinFreshDuring = res.FreshBefore
	for _, s := range res.Trace {
		if s.ActiveRules > 0 && s.FreshPairs < res.MinFreshDuring {
			res.MinFreshDuring = s.FreshPairs
		}
	}

	// Post-heal: freshness must climb back to (at least) the baseline.
	pollUntil(p.Period, p.phaseTimeout(), func() bool {
		res.FreshAfter = max(res.FreshAfter, freshPairs(members, p.FreshHop))
		return res.FreshAfter >= res.FreshBefore
	})

	res.FinalCompleteViews, res.FinalLive = completeLiveViews(members)
	_, failuresAfter, _, _, _ := liveTotals(f.Snapshot())
	res.FailuresDelta = failuresAfter - failuresBefore
	res.StepsApplied = len(ex.Fired())
	res.ActiveRulesEnd = ex.ActiveRules()
	res.Events = ex.Fired()
	return res, nil
}
