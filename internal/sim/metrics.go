package sim

import (
	"math/rand/v2"
)

// MetricsConfig controls the estimators used when observing large
// overlays. Zero values request exact computation, which is what the
// tests use; the experiment drivers sample to keep the paper-scale runs
// (N = 10^4, hundreds of cycles) tractable.
type MetricsConfig struct {
	// PathSources is the number of BFS sources used to estimate average
	// path length; 0 computes the exact all-pairs value.
	PathSources int
	// ClusteringSample is the number of nodes sampled for the clustering
	// coefficient; 0 computes the exact average.
	ClusteringSample int
	// Seed drives the sampling; observations with the same seed and
	// topology are identical.
	Seed uint64
}

// Observation is one row of metrics about the live overlay, the raw
// material of the paper's figures.
type Observation struct {
	Cycle      int
	LiveNodes  int
	Edges      int
	AvgDegree  float64
	MinDegree  int
	MaxDegree  int
	Clustering float64
	PathLen    float64
	Components int
	Largest    int
	DeadLinks  int
}

// Observe measures the current overlay.
func (w *Network) Observe(mc MetricsConfig) Observation {
	snap := w.TakeSnapshot()
	g := snap.Graph
	rng := rand.New(rand.NewPCG(mc.Seed, uint64(w.cycle)+1))

	o := Observation{
		Cycle:     w.cycle,
		LiveNodes: w.live,
		Edges:     g.NumEdges(),
		AvgDegree: g.AverageDegree(),
		DeadLinks: snap.deadLinks,
	}
	o.MinDegree, o.MaxDegree = g.MinMaxDegree()

	if mc.ClusteringSample > 0 {
		o.Clustering = g.EstimateClustering(mc.ClusteringSample, rng)
	} else {
		o.Clustering = g.Clustering()
	}
	if mc.PathSources > 0 {
		o.PathLen = g.EstimatePathLength(mc.PathSources, rng)
	} else {
		o.PathLen, _ = g.AveragePathLength()
	}
	comp := g.Components()
	o.Components = comp.Count
	o.Largest = comp.Largest
	return o
}
