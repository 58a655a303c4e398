package scenario

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"peersampling/aggregate"
	"peersampling/internal/config"
	"peersampling/internal/fleet"
	"peersampling/internal/metrics"
	"peersampling/internal/stats"
)

// The live aggregation experiment runs the paper's second application —
// gossip-based push-pull averaging — across real processes: every member
// attaches an aggregate workload engine, the driver seeds a spread of
// values over the transport's app-payload frames, and the empirical
// variance decay is measured against the protocol's ideal rate of
// 1/(2*sqrt(e)) per round. A second phase reruns the classic network
// size estimation trick (one extra unit of mass at one node; every
// estimate converges to the old mean plus 1/N) to check the averaged
// mass is meaningful end to end.

// liveAggregateParams is the fleet's shape plus the measurement length.
type liveAggregateParams struct {
	liveShape
	Polls int // measurement polls per phase (one per period)
}

// idealRate is the paper's expected variance reduction factor per round
// for push-pull averaging: 1/(2*sqrt(e)).
var idealRate = 1 / (2 * math.Sqrt(math.E))

// LiveAggregateResult reports the live averaging experiment.
type LiveAggregateResult struct {
	Params liveAggregateParams
	liveHead

	// VariancePerPoll is the empirical estimate variance across live
	// members, one point per measurement poll.
	VariancePerPoll []float64
	// RoundsElapsed is the mean engine rounds ticked during the variance
	// phase, normalising the decay rate to per-round form.
	RoundsElapsed float64
	// EmpiricalRate is the measured per-round variance reduction factor;
	// the ideal is 1/(2*sqrt(e)) ~ 0.303. Live concurrency makes the
	// match loose, but the decay must be unmistakably exponential.
	EmpiricalRate float64
	// SizeEstimates are the per-node network size estimates
	// (1/(value - phase-1 mean)) after the size-estimation phase, sorted
	// ascending.
	SizeEstimates []float64
	// MedianSizeEstimate summarises them; the truth is Nodes.
	MedianSizeEstimate float64
	// Sent / Received / Failures are fleet-wide workload totals at the
	// end of both phases.
	Sent, Received, Failures uint64

	rows []metrics.LongRow
}

// Converged reports whether the variance decayed by well over an order
// of magnitude and the size estimate landed within 25% of the truth.
func (r *LiveAggregateResult) Converged() bool {
	if r.BootstrapComplete != r.Params.Nodes || len(r.VariancePerPoll) < 2 {
		return false
	}
	first, last := r.VariancePerPoll[0], r.VariancePerPoll[len(r.VariancePerPoll)-1]
	if first <= 0 || last >= 0.05*first {
		return false
	}
	truth := float64(r.Params.Nodes)
	return math.Abs(r.MedianSizeEstimate-truth) <= 0.25*truth
}

// Render implements Result.
func (r *LiveAggregateResult) Render() string {
	var b strings.Builder
	r.header(&b, "Live aggregation: push-pull averaging across a real fleet", r.Params.liveShape, "")
	if n := len(r.VariancePerPoll); n > 0 {
		fmt.Fprintf(&b, "%-38s %10.3g\n", "initial estimate variance", r.VariancePerPoll[0])
		fmt.Fprintf(&b, "%-38s %10.3g\n", "final estimate variance", r.VariancePerPoll[n-1])
	}
	fmt.Fprintf(&b, "%-38s %10.1f\n", "engine rounds elapsed (mean)", r.RoundsElapsed)
	fmt.Fprintf(&b, "%-38s %10.3f\n", "variance reduction per round", r.EmpiricalRate)
	fmt.Fprintf(&b, "%-38s %10.3f\n", "ideal reduction 1/(2*sqrt(e))", idealRate)
	fmt.Fprintf(&b, "%-38s %10.1f\n", "median network size estimate", r.MedianSizeEstimate)
	fmt.Fprintf(&b, "%-38s %10d\n", "true network size", r.Params.Nodes)
	fmt.Fprintf(&b, "%-38s %10d\n", "app messages sent", r.Sent)
	fmt.Fprintf(&b, "%-38s %10d\n", "app messages received", r.Received)
	fmt.Fprintf(&b, "%-38s %10d\n", "app delivery failures", r.Failures)
	fmt.Fprintf(&b, "variance decayed and size estimated: %v\n", r.Converged())
	return b.String()
}

// CSV implements CSVer: node,cycle,metric,value with per-node estimates
// and fleet-wide variance per poll round across both phases.
func (r *LiveAggregateResult) CSV() map[string]string {
	return map[string]string{"liveaggregate_decay": metrics.LongCSV("node", r.rows)}
}

// RunLiveAggregate boots a fleet whose members all run an aggregate
// workload engine, seeds member i with value i, measures the estimate
// variance per period until it collapses, then adds one unit of mass at
// the first member as a size estimation and reads the estimates back.
// Timing is real, and the seed chooses nothing: members seed their
// protocol randomness from their own addresses.
func RunLiveAggregate(sc Scale, seed uint64, env LiveEnv) (*LiveAggregateResult, error) {
	p := liveAggregateParams{liveShape: deriveShape(sc, 50, 8, 24), Polls: 40}
	tmpl := p.template()
	tmpl.Workload.Kind = config.WorkloadAggregate
	tmpl.Workload.Period = p.Period
	f, err := env.boot(p.liveShape, fleet.Config{Template: tmpl})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res := &LiveAggregateResult{Params: p, liveHead: f.head}
	members := f.members

	seeder, err := newAppSeeder()
	if err != nil {
		return nil, err
	}
	defer seeder.Close()

	// Phase 1 — variance decay. Seed a linear spread of values, then
	// poll the estimates once per period and watch the variance collapse.
	for i, m := range members {
		if err := seeder.send(m.Addr(), aggregate.Topic, aggregate.EncodeSet(float64(i))); err != nil {
			return nil, err
		}
	}
	roundsAtStart := meanRounds(liveAppSnapshots(members))
	var mean float64
	pollUntil(p.Period, p.phaseTimeout(), func() bool {
		poll := len(res.VariancePerPoll)
		snaps := liveAppSnapshots(members)
		values := make([]float64, 0, len(snaps))
		for _, s := range snaps {
			values = append(values, s.App.Value)
			res.rows = append(res.rows, metrics.LongRow{
				Key: s.Node, Cycle: poll, Metric: "value", Value: s.App.Value,
			})
		}
		mean = stats.Mean(values)
		v := stats.Variance(values)
		res.VariancePerPoll = append(res.VariancePerPoll, v)
		res.rows = append(res.rows, metrics.LongRow{
			Key: "fleet", Cycle: poll, Metric: "variance", Value: v,
		})
		return v < 1e-9 || poll+1 == p.Polls
	})
	res.RoundsElapsed = meanRounds(liveAppSnapshots(members)) - roundsAtStart
	if n := len(res.VariancePerPoll); n >= 2 && res.RoundsElapsed > 0 {
		first, last := res.VariancePerPoll[0], res.VariancePerPoll[n-1]
		if first > 0 && last > 0 {
			res.EmpiricalRate = math.Pow(last/first, 1/res.RoundsElapsed)
		}
	}

	// Phase 2 — network size estimation. One set message adds one unit
	// of mass at the first member, so every estimate converges to
	// mean + 1/N. Resetting every member instead races the resets against
	// the gossip still running between them and changes the fleet's mass
	// by whatever the not-yet-reset members averaged in meanwhile.
	if err := seeder.send(members[0].Addr(), aggregate.Topic, aggregate.EncodeSet(mean+1)); err != nil {
		return nil, err
	}
	time.Sleep(time.Duration(p.Polls) * p.Period)
	final := liveAppSnapshots(members)
	for _, s := range final {
		if s.App.Value <= mean {
			continue // not yet reached by the extra mass; the estimate is meaningless
		}
		est := aggregate.SizeEstimate(s.App.Value - mean)
		res.SizeEstimates = append(res.SizeEstimates, est)
		res.rows = append(res.rows, metrics.LongRow{
			Key: s.Node, Cycle: p.Polls, Metric: "size_estimate", Value: est,
		})
	}
	sort.Float64s(res.SizeEstimates)
	if n := len(res.SizeEstimates); n > 0 {
		res.MedianSizeEstimate = res.SizeEstimates[n/2]
	}

	res.Sent, res.Received, res.Failures = liveAppTotals(final)
	return res, nil
}

// meanRounds averages the workload engines' round counters.
func meanRounds(snaps []metrics.NodeSnapshot) float64 {
	if len(snaps) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range snaps {
		total += float64(s.App.Rounds)
	}
	return total / float64(len(snaps))
}
