package graph

import (
	"cmp"
	"slices"
)

// DSU is a disjoint-set union (union-find) structure with union by size
// and path halving. It underlies both component analysis and the
// reverse-incremental catastrophic-failure sweep.
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

// Components computes the connected components of g.
func (g *Graph) Components() ComponentStats {
	n := len(g.adj)
	d := NewDSU(n)
	for v := range g.adj {
		for _, u := range g.adj[v] {
			if u > int32(v) { // each edge once
				d.Union(int32(v), u)
			}
		}
	}
	// After every union, a root's DSU size is its component's size.
	stats := ComponentStats{Count: d.count, Sizes: make([]int, 0, d.count)}
	for v, p := range d.parent {
		if p == int32(v) {
			stats.Sizes = append(stats.Sizes, int(d.size[v]))
		}
	}
	slices.SortFunc(stats.Sizes, func(a, b int) int { return cmp.Compare(b, a) })
	if len(stats.Sizes) > 0 {
		stats.Largest = stats.Sizes[0]
	}
	return stats
}
