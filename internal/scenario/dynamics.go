package scenario

import (
	"fmt"
	"strings"

	"peersampling/internal/core"
	"peersampling/internal/sim"
	"peersampling/internal/stats"
)

// Dynamics is a per-protocol trace of overlay properties over cycles, the
// data behind one line of the paper's convergence figures.
type Dynamics struct {
	Protocol     core.Protocol
	Observations []sim.Observation
}

// overlayMetric is one plotted overlay property: its reading in an
// observation and in the baseline.
type overlayMetric struct {
	name string
	obs  func(sim.Observation) float64
	base func(Baseline) float64
}

// dynamicsMetrics names each plotted property once, in CSV order.
var dynamicsMetrics = []overlayMetric{
	{"clustering", func(o sim.Observation) float64 { return o.Clustering }, func(b Baseline) float64 { return b.Clustering }},
	{"avgdegree", func(o sim.Observation) float64 { return o.AvgDegree }, func(b Baseline) float64 { return b.AvgDegree }},
	{"pathlen", func(o sim.Observation) float64 { return o.PathLen }, func(b Baseline) float64 { return b.PathLen }},
}

// metricNamed returns the dynamicsMetrics entry called name. It panics on
// an unknown name.
func metricNamed(name string) overlayMetric {
	for _, m := range dynamicsMetrics {
		if m.name == name {
			return m
		}
	}
	panic(fmt.Sprintf("scenario: unknown metric %q", name))
}

// SeriesOf extracts one metric of dynamicsMetrics as a stats.Series. It
// panics on an unknown metric name.
func (d *Dynamics) SeriesOf(metric string) *stats.Series {
	m := metricNamed(metric)
	s := stats.NewSeries(fmt.Sprintf("%s %s", d.Protocol, metric))
	for _, o := range d.Observations {
		s.Append(o.Cycle, m.obs(o))
	}
	return s
}

// Baseline holds the properties of the uniform-random-view topology the
// paper draws as horizontal reference lines.
type Baseline struct {
	N          int
	ViewSize   int
	AvgDegree  float64
	Clustering float64
	PathLen    float64
}

// ComputeBaseline measures a freshly generated random-view graph with the
// same estimator settings as the experiment.
func ComputeBaseline(sc Scale, seed uint64) Baseline {
	cfg := sim.Config{
		Protocol: core.Newscast, // irrelevant: no cycles are run
		ViewSize: sc.ViewSize,
		Seed:     seed,
	}
	w := BuildRandom(cfg, sc.N)
	o := w.Observe(metricsConfig(sc, seed))
	return Baseline{
		N:          sc.N,
		ViewSize:   sc.ViewSize,
		AvgDegree:  o.AvgDegree,
		Clustering: o.Clustering,
		PathLen:    o.PathLen,
	}
}

// renderDynamics prints, for each protocol, the metric values at a few
// representative cycles plus the converged (tail-mean) value, against the
// baseline.
func renderDynamics(title string, dyn []Dynamics, base Baseline, metric string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (baseline %s)\n", title, metric, f4(metricNamed(metric).base(base)))
	tb := newTable("protocol", "early", "mid", "late", "converged")
	for _, d := range dyn {
		s := d.SeriesOf(metric)
		n := s.Len()
		if n == 0 {
			tb.addRow(d.Protocol.String(), "-", "-", "-", "-")
			continue
		}
		early := s.Values[0]
		mid := s.Values[n/2]
		late := s.Values[n-1]
		tb.addRow(d.Protocol.String(), f4(early), f4(mid), f4(late), f4(s.ConvergedValue(0.2)))
	}
	b.WriteString(tb.String())
	return b.String()
}

// collectDynamics runs `cycles` cycles of w, observing every
// `measureEvery` cycles (and always at the final cycle), and returns the
// trace. An observation is also taken before the first cycle (cycle 0).
func collectDynamics(w *sim.Network, cycles, measureEvery int, mc sim.MetricsConfig) []sim.Observation {
	obs := make([]sim.Observation, 0, cycles/measureEvery+2)
	obs = append(obs, w.Observe(mc))
	for i := 1; i <= cycles; i++ {
		w.RunCycle()
		if i%measureEvery == 0 || i == cycles {
			obs = append(obs, w.Observe(mc))
		}
	}
	return obs
}

// connectedGrowingRun runs the growing scenario repeatedly with derived
// seeds until the final overlay is connected, returning the network and
// the per-cycle observations of the successful run. The paper's Figure 2
// includes exactly such a non-partitioned run for the (*,rand,push)
// protocols. maxAttempts bounds the search; the last attempt is returned
// even if partitioned.
func connectedGrowingRun(proto core.Protocol, sc Scale, seed uint64, maxAttempts int) (dyn []sim.Observation, connected bool) {
	mc := metricsConfig(sc, seed)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		cfg := sim.Config{Protocol: proto, ViewSize: sc.ViewSize, Seed: mix(seed, attempt)}
		var obs []sim.Observation
		w := RunGrowing(cfg, sc, func(w *sim.Network, cycle int) {
			if cycle%sc.MeasureEvery == 0 || cycle == sc.Cycles {
				obs = append(obs, w.Observe(mc))
			}
		})
		if w.TakeSnapshot().Graph.Components().Connected() {
			return obs, true
		}
		dyn = obs
	}
	return dyn, false
}
