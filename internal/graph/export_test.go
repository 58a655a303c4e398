package graph

// Fixtures and probes for the graph_test package's reference comparison.
var (
	FromAdjacency = fromAdjacency
	Diameter      = diameter
)

// Row returns v's sorted adjacency row, shared with g.
func Row(g *Graph, v int32) []int32 { return g.adj[v] }

// ClusteringOf returns v's local clustering coefficient.
func ClusteringOf(g *Graph, v int32) float64 {
	return g.clusteringOf(v, make([]uint32, len(g.adj)), 1)
}

// PathSums returns the distance sum and pair count from the distinct srcs.
func PathSums(g *Graph, srcs []int) (sum, pairs int64) { return g.pathSums(srcs) }
