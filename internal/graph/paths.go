package graph

import (
	"math/bits"
	"math/rand/v2"
)

// BFS computes the hop distance from src to every node. Unreachable nodes
// get distance -1. The returned slice is freshly allocated. A level runs
// bottom-up, every unreached node scanning its row for a frontier member,
// once the frontier's edges × 14 exceed 2m (Beamer, Asanović and
// Patterson, SC 2012); the distances are exact either way.
func (g *Graph) BFS(src int32) []int32 {
	adj := g.adj
	dist := make([]int32, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := append(make([]int32, 0, len(adj)), src) // the reached nodes, level after level
	for lo, level := 0, int32(0); lo < len(queue); level++ {
		frontier := queue[lo:]
		lo = len(queue)
		edges := 0
		for _, v := range frontier {
			edges += len(adj[v])
		}
		if edges*14 > 2*g.edges {
			for u, du := range dist {
				if du >= 0 {
					continue
				}
				for _, v := range adj[u] {
					if dist[v] == level {
						dist[u] = level + 1
						queue = append(queue, int32(u))
						break
					}
				}
			}
		} else {
			for _, v := range frontier {
				for _, u := range adj[v] {
					if dist[u] < 0 {
						dist[u] = level + 1
						queue = append(queue, u)
					}
				}
			}
		}
	}
	return dist
}

// pathSums returns the sum of the hop distances from each of srcs, which
// must be distinct, to every other node it reaches, and the number of such
// (source, node) pairs. It traverses the graph for up to 64 sources at once,
// one bit per source (Then et al., "The More the Merrier", PVLDB 2014):
// each node keeps the sources that have reached it (seen), that reached it
// at the current level (frontier) and that reach it at the next (next). A
// level pushes every frontier word along its node's row while the
// frontier's row entries number at most m, half of all entries. Denser
// levels pull instead: each node not yet seen by every source ORs its
// neighbours' frontier words, and stops once it holds every source. A new
// bit is one source reaching one node, at distance level.
func (g *Graph) pathSums(srcs []int) (sum, pairs int64) {
	adj, n := g.adj, len(g.adj)
	words := make([]uint64, 3*n)
	for len(srcs) > 0 {
		batch := srcs[:min(64, len(srcs))]
		srcs = srcs[len(batch):]
		clear(words)
		seen, frontier, next := words[:n], words[n:2*n], words[2*n:]
		all := ^uint64(0) >> (64 - len(batch))
		edges := 0 // the frontier's row entries
		for i, s := range batch {
			seen[s] = 1 << i
			frontier[s] = 1 << i
			edges += len(adj[s])
		}
		for level := int64(1); edges > 0; level++ {
			found, nextEdges := 0, 0
			if edges > g.edges {
				for u, s := range seen {
					if s == all {
						next[u] = 0
						continue
					}
					var reach uint64
					for _, v := range adj[u] {
						if reach |= frontier[v]; reach|s == all {
							break // every missing source arrives now
						}
					}
					fresh := reach &^ s
					next[u] = fresh
					if fresh != 0 {
						seen[u] = s | fresh
						found += bits.OnesCount64(fresh)
						nextEdges += len(adj[u])
					}
				}
			} else {
				clear(next)
				for v, f := range frontier {
					if f == 0 {
						continue
					}
					for _, u := range adj[v] {
						fresh := f &^ seen[u]
						if fresh == 0 {
							continue
						}
						if next[u] == 0 {
							nextEdges += len(adj[u])
						}
						next[u] |= fresh
						seen[u] |= fresh
						found += bits.OnesCount64(fresh)
					}
				}
			}
			sum += level * int64(found)
			pairs += int64(found)
			frontier, next = next, frontier
			edges = nextEdges
		}
	}
	return sum, pairs
}

// AveragePathLength returns the exact mean shortest path length over all
// reachable ordered pairs of distinct nodes. For disconnected graphs,
// unreachable pairs are excluded from the average (the paper's overlays
// are connected whenever this metric is plotted). The second return value
// is the number of ordered pairs averaged over; it is 0 (with length 0)
// when no pair is reachable, and n·(n−1) exactly when the graph is
// connected. It traverses from every node, 64 at a time.
func (g *Graph) AveragePathLength() (float64, int) {
	return g.EstimatePathLength(0, nil)
}

// EstimatePathLength estimates the average shortest path length from
// `sources` distinct random source nodes, averaging their distances to all
// reachable targets, and returns it with the number of (source, target)
// pairs averaged over. With sources <= 0 or sources >= n it computes the
// exact value, as AveragePathLength does, and draws nothing from rng. Every
// one of k sources has reached every node exactly when the pairs come to
// k·(n−1), so for n > 0 that count shows the graph connected.
func (g *Graph) EstimatePathLength(sources int, rng *rand.Rand) (float64, int) {
	n := len(g.adj)
	if sources <= 0 || sources >= n {
		sources, rng = n, nil
	}
	sum, pairs := g.pathSums(sampleIndices(n, sources, rng))
	if pairs == 0 {
		return 0, 0
	}
	return float64(sum) / float64(pairs), int(pairs)
}

// sampleIndices returns k distinct indices from 0..n-1 chosen uniformly at
// random (partial Fisher-Yates), or the first k in order with a nil rng;
// k <= n.
func sampleIndices(n, k int, rng *rand.Rand) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; rng != nil && i < k; i++ {
		j := i + rng.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
