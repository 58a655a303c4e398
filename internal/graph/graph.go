package graph

import "slices"

// Graph is a simple undirected graph over nodes 0..n-1 whose sorted
// adjacency rows are sub-slices of one backing array. Build one with
// FromRows; the zero value is an empty graph. A Graph is immutable, and
// its analyses keep their scratch per call.
type Graph struct {
	adj   [][]int32
	edges int
}

// FromRows builds the undirected communication graph of n nodes:
// row(i, dst) appends node i's directed out-neighbours to dst and returns
// it, and is called once per node in ascending order. Link directions are
// dropped and duplicates merged, per Section 4.2 of the paper; targets
// equal to i or outside 0..n-1 are ignored (the simulator skips dead peers
// this way). Two counting sorts replace any comparison sort: pass 1
// scatters every link into both endpoints' rows, pass 2 transposes that
// symmetric relation in ascending row order, so every row comes out
// sorted, and one linear pass drops duplicates in place.
func FromRows(n int, row func(i int, dst []int32) []int32) *Graph {
	out := make([]int32, 0, n) // the directed links, row after row
	outEnd := make([]int, n)   // out[outEnd[i-1]:outEnd[i]] is row i
	deg := make([]int, n)      // undirected row lengths, duplicates included
	widest := 0                // the longest unfiltered row so far
	for i := range n {
		// Double ahead of the callback: append grows by 1.25x.
		if cap(out)-len(out) < widest {
			out = slices.Grow(out, cap(out))
		}
		kept := len(out)
		out = row(i, out)
		widest = max(widest, len(out)-kept)
		for _, t := range out[kept:] {
			if t >= 0 && int(t) < n && int(t) != i {
				out[kept] = t
				kept++
				deg[i]++
				deg[t]++
			}
		}
		out = out[:kept]
		outEnd[i] = kept
	}

	start := make([]int, n+1)
	for v, d := range deg {
		start[v+1] = start[v] + d
	}
	pos := deg // reused as the per-row write cursor
	copy(pos, start)
	mixed := make([]int32, start[n]) // pass 1: out- and in-neighbours, unsorted
	lo := 0
	for a, hi := range outEnd {
		for _, b := range out[lo:hi] {
			mixed[pos[a]] = b
			pos[a]++
			mixed[pos[b]] = int32(a)
			pos[b]++
		}
		lo = hi
	}
	copy(pos, start)
	sorted := make([]int32, start[n]) // pass 2: the same rows, ascending
	for u := range n {
		for _, v := range mixed[start[u]:start[u+1]] {
			sorted[pos[v]] = int32(u)
			pos[v]++
		}
	}

	adj := make([][]int32, n)
	w := 0
	for v := range n {
		first := w
		for _, u := range sorted[start[v]:start[v+1]] {
			if w == first || sorted[w-1] != u {
				sorted[w] = u
				w++
			}
		}
		adj[v] = sorted[first:w:w]
	}
	return &Graph{adj: adj, edges: w / 2}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int32) int { return len(g.adj[v]) }
