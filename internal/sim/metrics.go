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

	o.Clustering = g.EstimateClustering(mc.ClusteringSample, rng)
	var pairs int
	o.PathLen, pairs = g.EstimatePathLength(mc.PathSources, rng)
	n, k := g.NumNodes(), mc.PathSources
	if k <= 0 || k > n {
		k = n // exact: every node is a source
	}
	if n > 0 && pairs == k*(n-1) {
		// Every source reached every node, so the graph is connected
		// and a flood fill would find nothing more.
		o.Components, o.Largest = 1, n
	} else {
		comp := g.Components()
		o.Components, o.Largest = comp.Count, comp.Largest
	}
	return o
}
