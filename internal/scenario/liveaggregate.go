package scenario

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"peersampling/aggregate"
	"peersampling/internal/config"
	"peersampling/internal/core"
	"peersampling/internal/fleet"
	"peersampling/internal/metrics"
)

// The live aggregation experiment runs the paper's second application —
// gossip-based push-pull averaging — across real processes: every member
// attaches an aggregate workload engine, the driver seeds a spread of
// values over the transport's app-payload frames, and the empirical
// variance decay is measured against the protocol's ideal rate of
// 1/(2*sqrt(e)) per round. A second phase reruns the classic network
// size estimation trick (value 1 at one node, 0 elsewhere; every
// estimate converges to 1/N) to check the averaged mass is meaningful
// end to end.

// liveAggregateParams derives the fleet's shape from a simulation Scale.
type liveAggregateParams struct {
	Nodes    int           // fleet size
	ViewSize int           // view capacity, capped below fleet size
	Period   time.Duration // gossip and workload round length T
	Polls    int           // measurement polls per phase (one per period)
}

func liveAggregateDerive(sc Scale) liveAggregateParams {
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
	return liveAggregateParams{
		Nodes:    nodes,
		ViewSize: view,
		Period:   20 * time.Millisecond,
		Polls:    40,
	}
}

// idealRate is the paper's expected variance reduction factor per round
// for push-pull averaging: 1/(2*sqrt(e)).
var idealRate = 1 / (2 * math.Sqrt(math.E))

// LiveAggregateResult reports the live averaging experiment.
type LiveAggregateResult struct {
	Params liveAggregateParams
	// Driver names the fleet driver that ran the cluster.
	Driver string

	// BootstrapComplete counts complete views after bootstrap.
	BootstrapComplete int
	BootstrapTime     time.Duration
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
	// SizeEstimates are the per-node network size estimates (1/value)
	// after the size-estimation phase, sorted ascending.
	SizeEstimates []float64
	// MedianSizeEstimate summarises them; the truth is Nodes.
	MedianSizeEstimate float64
	// Sent / Received / Failures are fleet-wide workload totals at the
	// end of both phases.
	Sent, Received, Failures uint64

	rows []metrics.LongRow
}

// ID implements Result.
func (r *LiveAggregateResult) ID() string { return "liveaggregate" }

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
	fmt.Fprintf(&b, "Live aggregation: push-pull averaging across a real fleet\n")
	fmt.Fprintf(&b, "fleet: %d nodes (%s driver), c=%d, T=%v\n",
		r.Params.Nodes, r.Driver, r.Params.ViewSize, r.Params.Period)
	fmt.Fprintf(&b, "%-38s %10s\n", "", "value")
	fmt.Fprintf(&b, "%-38s %7d/%2d\n", "complete views after bootstrap", r.BootstrapComplete, r.Params.Nodes)
	fmt.Fprintf(&b, "%-38s %10v\n", "bootstrap time", r.BootstrapTime.Round(time.Millisecond))
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
// variance per period until it collapses, then reruns the seeding as a
// size estimation (one 1, rest 0) and reads the estimates back. Timing
// is real, and the seed chooses nothing: members seed their protocol
// randomness from their own addresses.
func RunLiveAggregate(sc Scale, seed uint64, env LiveEnv) (*LiveAggregateResult, error) {
	p := liveAggregateDerive(sc)
	res := &LiveAggregateResult{Params: p, Driver: env.DriverName()}

	cluster, err := env.cluster(fleet.Config{
		Protocol: core.Newscast,
		ViewSize: p.ViewSize,
		Period:   p.Period,
		Backend:  "tcp",
		Workload: config.WorkloadSection{
			Kind:   config.WorkloadAggregate,
			Period: p.Period,
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

	// Phase 1 — variance decay. Seed a linear spread of values, then
	// poll the estimates once per period and watch the variance collapse.
	for i, m := range members {
		if err := seeder.send(m.Addr(), aggregate.Topic, aggregate.EncodeSet(float64(i))); err != nil {
			return nil, err
		}
	}
	roundsAtStart := meanRounds(liveAppSnapshots(members))
	for poll := 0; poll < p.Polls; poll++ {
		snaps := liveAppSnapshots(members)
		values := make([]float64, 0, len(snaps))
		for _, s := range snaps {
			values = append(values, s.App.Value)
			res.rows = append(res.rows, metrics.LongRow{
				Key: s.Node, Cycle: poll, Metric: "value", Value: s.App.Value,
			})
		}
		v := variance(values)
		res.VariancePerPoll = append(res.VariancePerPoll, v)
		res.rows = append(res.rows, metrics.LongRow{
			Key: "fleet", Cycle: poll, Metric: "variance", Value: v,
		})
		if v < 1e-9 {
			break
		}
		time.Sleep(p.Period)
	}
	res.RoundsElapsed = meanRounds(liveAppSnapshots(members)) - roundsAtStart
	if n := len(res.VariancePerPoll); n >= 2 && res.RoundsElapsed > 0 {
		first, last := res.VariancePerPoll[0], res.VariancePerPoll[n-1]
		if first > 0 && last > 0 {
			res.EmpiricalRate = math.Pow(last/first, 1/res.RoundsElapsed)
		}
	}

	// Phase 2 — network size estimation: value 1 at the first member, 0
	// elsewhere; every estimate converges to 1/N.
	for i, m := range members {
		v := 0.0
		if i == 0 {
			v = 1
		}
		if err := seeder.send(m.Addr(), aggregate.Topic, aggregate.EncodeSet(v)); err != nil {
			return nil, err
		}
	}
	time.Sleep(time.Duration(p.Polls) * p.Period)
	final := liveAppSnapshots(members)
	for _, s := range final {
		if s.App.Value <= 0 {
			continue // not yet reached by any mass; 1/value is meaningless
		}
		est := aggregate.SizeEstimate(s.App.Value)
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

// variance is the population variance of values.
func variance(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	sum := 0.0
	for _, v := range values {
		d := v - mean
		sum += d * d
	}
	return sum / float64(len(values))
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
