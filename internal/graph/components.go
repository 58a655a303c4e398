package graph

import (
	"cmp"
	"slices"
)

// DSU is a disjoint-set union (union-find) structure with union by size
// and path halving. It underlies the reverse-incremental
// catastrophic-failure sweep, which adds nodes back one at a time.
type DSU struct {
	parent []int32
	size   []int32
	count  int // number of disjoint sets
}

// NewDSU returns a DSU over n singleton elements.
func NewDSU(n int) *DSU {
	d := &DSU{
		parent: make([]int32, n),
		size:   make([]int32, n),
		count:  n,
	}
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
	return d
}

// Find returns the representative of x's set.
func (d *DSU) Find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]] // path halving
		x = d.parent[x]
	}
	return x
}

// Union merges the sets of a and b and reports whether a merge happened.
func (d *DSU) Union(a, b int32) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	d.count--
	return true
}

// SizeOf returns the size of the set containing x.
func (d *DSU) SizeOf(x int32) int32 { return d.size[d.Find(x)] }

// Count returns the number of disjoint sets.
func (d *DSU) Count() int { return d.count }

// ComponentStats summarises the connected components of a graph.
type ComponentStats struct {
	Count   int   // number of connected components
	Largest int   // size of the largest component
	Sizes   []int // all component sizes, descending
}

// Connected reports whether the graph forms a single component. The empty
// graph counts as connected.
func (s ComponentStats) Connected() bool { return s.Count <= 1 }

// OutsideLargest returns the number of nodes that do not belong to the
// largest connected cluster, the quantity plotted in the paper's Figure 6.
func (s ComponentStats) OutsideLargest() int {
	total := 0
	for _, sz := range s.Sizes {
		total += sz
	}
	return total - s.Largest
}

// Components computes the connected components of g by flood fill: one
// queue holds every node once, each component a contiguous run of it, so
// a component's size is the length of its run.
func (g *Graph) Components() ComponentStats {
	n := len(g.adj)
	seen := make([]bool, n)
	queue := make([]int32, 0, n)
	var stats ComponentStats
	for s := range n {
		if seen[s] {
			continue
		}
		start := len(queue)
		seen[s] = true
		queue = append(queue, int32(s))
		for head := start; head < len(queue); head++ {
			for _, u := range g.adj[queue[head]] {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		stats.Sizes = append(stats.Sizes, len(queue)-start)
	}
	stats.Count = len(stats.Sizes)
	slices.SortFunc(stats.Sizes, func(a, b int) int { return cmp.Compare(b, a) })
	if len(stats.Sizes) > 0 {
		stats.Largest = stats.Sizes[0]
	}
	return stats
}
