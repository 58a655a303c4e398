package graph

import "math/rand/v2"

// bfs is one call's BFS scratch, reused for every source.
type bfs struct {
	adj         [][]int32
	twoM        int
	dist, queue []int32 // queue holds the reached nodes, level after level
}

func (g *Graph) newBFS() bfs {
	return bfs{g.adj, 2 * g.edges, make([]int32, len(g.adj)), make([]int32, 0, len(g.adj))}
}

// run fills dist with the hop distances from src (-1 if unreached) and
// returns their sum and the number of nodes reached besides src. A level
// runs bottom-up, every unreached node scanning its row for a frontier
// member, once the frontier's edges × 14 exceed 2m (Beamer, Asanović and
// Patterson, SC 2012). Distances and their integer sum are exact either way.
func (b *bfs) run(src int32) (sum, pairs int64) {
	adj, dist := b.adj, b.dist
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	b.queue = append(b.queue[:0], src)
	for lo, level := 0, int32(0); lo < len(b.queue); level++ {
		frontier := b.queue[lo:]
		lo = len(b.queue)
		edges := 0
		for _, v := range frontier {
			edges += len(adj[v])
		}
		if edges*14 > b.twoM {
			for u, du := range dist {
				if du >= 0 {
					continue
				}
				for _, v := range adj[u] {
					if dist[v] == level {
						dist[u] = level + 1
						b.queue = append(b.queue, int32(u))
						break
					}
				}
			}
		} else {
			for _, v := range frontier {
				for _, u := range adj[v] {
					if dist[u] < 0 {
						dist[u] = level + 1
						b.queue = append(b.queue, u)
					}
				}
			}
		}
		sum += int64(level+1) * int64(len(b.queue)-lo)
	}
	return sum, int64(len(b.queue) - 1)
}

// BFS computes the hop distance from src to every node. Unreachable nodes
// get distance -1. The returned slice is freshly allocated.
func (g *Graph) BFS(src int32) []int32 {
	b := g.newBFS()
	b.run(src)
	return b.dist
}

// AveragePathLength returns the exact mean shortest path length over all
// reachable ordered pairs of distinct nodes. For disconnected graphs,
// unreachable pairs are excluded from the average (the paper's overlays
// are connected whenever this metric is plotted). The second return value
// is the number of ordered pairs averaged over; it is 0 (with length 0)
// when no pair is reachable. Cost is one BFS per node.
func (g *Graph) AveragePathLength() (float64, int) {
	b := g.newBFS()
	var sum, pairs int64
	for v := range g.adj {
		s, p := b.run(int32(v))
		sum += s
		pairs += p
	}
	if pairs == 0 {
		return 0, 0
	}
	return float64(sum) / float64(pairs), int(pairs)
}

// EstimatePathLength estimates the average shortest path length by running
// BFS from `sources` distinct random source nodes and averaging distances
// to all reachable targets. With sources >= n it computes the exact value.
func (g *Graph) EstimatePathLength(sources int, rng *rand.Rand) float64 {
	n := len(g.adj)
	if n < 2 {
		return 0
	}
	if sources >= n {
		l, _ := g.AveragePathLength()
		return l
	}
	b := g.newBFS()
	var sum, pairs int64
	for _, src := range sampleIndices(n, sources, rng) {
		s, p := b.run(int32(src))
		sum += s
		pairs += p
	}
	if pairs == 0 {
		return 0
	}
	return float64(sum) / float64(pairs)
}

// sampleIndices returns k distinct indices from 0..n-1 chosen uniformly at
// random (partial Fisher-Yates).
func sampleIndices(n, k int, rng *rand.Rand) []int {
	if k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
