package graph

import "math/rand/v2"

// clusteringOf stamps v's neighbours with gen, then counts the stamped
// entries of each neighbour's row, which counts every edge among the
// neighbours twice. A fresh gen per node clears the previous node's marks,
// so one stamp array serves a whole call.
func (g *Graph) clusteringOf(v int32, stamp []uint32, gen uint32) float64 {
	nb := g.adj[v]
	d := len(nb)
	if d < 2 {
		return 0
	}
	for _, u := range nb {
		stamp[u] = gen
	}
	links := 0
	for _, u := range nb {
		for _, w := range g.adj[u] {
			if stamp[w] == gen {
				links++
			}
		}
	}
	return float64(links) / float64(d*(d-1))
}

// Clustering returns the clustering coefficient of the graph: the average
// of the local coefficients over all nodes. A node's local coefficient is
// the number of edges among its neighbours divided by the number of
// possible such edges, and 0 with fewer than two neighbours (the
// Watts-Strogatz convention, under which trees score 0 as in the paper).
// It is exact and costs O(sum_v deg(v)^2) time.
func (g *Graph) Clustering() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	stamp := make([]uint32, len(g.adj))
	sum := 0.0
	for v := range g.adj {
		sum += g.clusteringOf(int32(v), stamp, uint32(v)+1)
	}
	return sum / float64(len(g.adj))
}

// EstimateClustering averages the local clustering coefficient over a
// uniform random sample of nodes (with replacement). With sample <= 0 or
// sample >= n the exact coefficient is returned instead, and nothing is
// drawn from rng.
func (g *Graph) EstimateClustering(sample int, rng *rand.Rand) float64 {
	n := len(g.adj)
	if sample <= 0 || sample >= n {
		return g.Clustering()
	}
	stamp := make([]uint32, n)
	sum := 0.0
	for i := 0; i < sample; i++ {
		sum += g.clusteringOf(int32(rng.IntN(n)), stamp, uint32(i)+1)
	}
	return sum / float64(sample)
}
