package graph

// AverageDegree returns the mean node degree (2m/n). It returns 0 for the
// empty graph.
func (g *Graph) AverageDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(len(g.adj))
}

// MinMaxDegree returns the smallest and largest node degree. Both are 0
// for the empty graph.
func (g *Graph) MinMaxDegree() (minDeg, maxDeg int) {
	if len(g.adj) == 0 {
		return 0, 0
	}
	minDeg = len(g.adj[0])
	for i := range g.adj {
		d := len(g.adj[i])
		if d < minDeg {
			minDeg = d
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	return minDeg, maxDeg
}
