package graph_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"peersampling/internal/core"
	"peersampling/internal/graph"
	"peersampling/internal/sim"
)

// refGraph is the adjacency-list graph the flat builder replaced: one
// appended slice per node, then a comparison sort and a compaction of
// every row. It and its analyses below are kept as the reference the
// optimised package must match bit for bit.
type refGraph [][]int32

func refFromAdjacency(out [][]int32) refGraph {
	n := len(out)
	adj := make(refGraph, n)
	for a, targets := range out {
		for _, b := range targets {
			if int(b) >= n || b < 0 || int(b) == a {
				continue
			}
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], int32(a))
		}
	}
	for i := range adj {
		slices.Sort(adj[i])
		adj[i] = slices.Compact(adj[i])
	}
	return adj
}

func (r refGraph) edges() int {
	m := 0
	for _, row := range r {
		m += len(row)
	}
	return m / 2
}

func (r refGraph) bfs(src int32) []int32 {
	dist := make([]int32, len(r))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range r[v] {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// pathSums adds up the finite distances from each source.
func (r refGraph) pathSums(sources []int) (sum, pairs int64) {
	for _, src := range sources {
		for _, d := range r.bfs(int32(src)) {
			if d > 0 {
				sum += int64(d)
				pairs++
			}
		}
	}
	return sum, pairs
}

func (r refGraph) averagePathLength() (float64, int) {
	sum, pairs := r.pathSums(refSampleIndices(len(r), len(r), nil))
	if pairs == 0 {
		return 0, 0
	}
	return float64(sum) / float64(pairs), int(pairs)
}

func (r refGraph) estimatePathLength(sources int, rng *rand.Rand) (float64, int) {
	n := len(r)
	if sources <= 0 || sources >= n {
		return r.averagePathLength()
	}
	sum, pairs := r.pathSums(refSampleIndices(n, sources, rng))
	if pairs == 0 {
		return 0, 0
	}
	return float64(sum) / float64(pairs), int(pairs)
}

func (r refGraph) diameter() int {
	var max int32
	for v := range r {
		for _, d := range r.bfs(int32(v)) {
			if d > max {
				max = d
			}
		}
	}
	return int(max)
}

// refSampleIndices is the partial Fisher-Yates the estimators draw their
// sources with; a nil rng returns every index in order.
func refSampleIndices(n, k int, rng *rand.Rand) []int {
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

func (r refGraph) clusteringOf(v int32) float64 {
	nb := r[v]
	d := len(nb)
	if d < 2 {
		return 0
	}
	links := 0
	for _, u := range nb {
		for _, w := range r[u] {
			if _, found := slices.BinarySearch(nb, w); found {
				links++
			}
		}
	}
	return float64(links) / float64(d*(d-1))
}

func (r refGraph) estimateClustering(sample int, rng *rand.Rand) float64 {
	n := len(r)
	if n == 0 {
		return 0
	}
	sum := 0.0
	if sample <= 0 || sample >= n {
		for v := range r {
			sum += r.clusteringOf(int32(v))
		}
		return sum / float64(n)
	}
	for i := 0; i < sample; i++ {
		sum += r.clusteringOf(int32(rng.IntN(n)))
	}
	return sum / float64(sample)
}

func (r refGraph) components() graph.ComponentStats {
	d := graph.NewDSU(len(r))
	for v, row := range r {
		for _, u := range row {
			d.Union(int32(v), u)
		}
	}
	sizes := make(map[int32]int)
	for v := range r {
		sizes[d.Find(int32(v))]++
	}
	stats := graph.ComponentStats{Count: len(sizes), Sizes: []int{}}
	for _, sz := range sizes {
		stats.Sizes = append(stats.Sizes, sz)
		stats.Largest = max(stats.Largest, sz)
	}
	slices.Sort(stats.Sizes)
	slices.Reverse(stats.Sizes)
	return stats
}

// matchReference fails t unless g and the reference built from the same
// out-lists agree on every row and every analysis, bit for bit.
func matchReference(t *testing.T, g *graph.Graph, out [][]int32) {
	t.Helper()
	ref := refFromAdjacency(out)
	n := len(ref)
	if g.NumNodes() != n || g.NumEdges() != ref.edges() {
		t.Fatalf("n, m = %d, %d; reference %d, %d", g.NumNodes(), g.NumEdges(), n, ref.edges())
	}
	for v := range ref {
		if !slices.Equal(graph.Row(g, int32(v)), ref[v]) {
			t.Fatalf("row %d = %v; reference %v", v, graph.Row(g, int32(v)), ref[v])
		}
		if !slices.Equal(g.BFS(int32(v)), ref.bfs(int32(v))) {
			t.Fatalf("BFS(%d) = %v; reference %v", v, g.BFS(int32(v)), ref.bfs(int32(v)))
		}
		if got, want := graph.ClusteringOf(g, int32(v)), ref.clusteringOf(int32(v)); got != want {
			t.Fatalf("ClusteringOf(%d) = %v; reference %v", v, got, want)
		}
	}
	gotL, gotP := g.AveragePathLength()
	wantL, wantP := ref.averagePathLength()
	if gotL != wantL || gotP != wantP {
		t.Fatalf("AveragePathLength = %v over %d; reference %v over %d", gotL, gotP, wantL, wantP)
	}
	if got, want := graph.Diameter(g), ref.diameter(); got != want {
		t.Fatalf("Diameter = %d; reference %d", got, want)
	}
	for _, k := range []int{-3, 0, 1, max(n/2, 1), n} {
		gotL, gotP := g.EstimatePathLength(k, rand.New(rand.NewPCG(uint64(k), 1)))
		wantL, wantP := ref.estimatePathLength(k, rand.New(rand.NewPCG(uint64(k), 1)))
		if gotL != wantL || gotP != wantP {
			t.Fatalf("EstimatePathLength(%d) = %v over %d; reference %v over %d", k, gotL, gotP, wantL, wantP)
		}
		if got, want := g.EstimateClustering(k, rand.New(rand.NewPCG(uint64(k), 2))),
			ref.estimateClustering(k, rand.New(rand.NewPCG(uint64(k), 2))); got != want {
			t.Fatalf("EstimateClustering(%d) = %v; reference %v", k, got, want)
		}
	}
	got, want := g.Components(), ref.components()
	if got.Count != want.Count || got.Largest != want.Largest || !slices.Equal(got.Sizes, want.Sizes) {
		t.Fatalf("Components = %+v; reference %+v", got, want)
	}
}

func TestObservationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 1))

	t.Run("random", func(t *testing.T) {
		out := graph.RandomOutViews(300, 8, rng)
		matchReference(t, graph.FromAdjacency(out), out)
	})

	t.Run("disconnected", func(t *testing.T) {
		// Three random blocks and five isolated nodes: eight components.
		var out [][]int32
		for _, size := range []int{60, 30, 12} {
			base := int32(len(out))
			for _, row := range graph.RandomOutViews(size, 4, rng) {
				for i := range row {
					row[i] += base
				}
				out = append(out, row)
			}
		}
		out = append(out, make([][]int32, 5)...)
		g := graph.FromAdjacency(out)
		if c := g.Components().Count; c != 8 {
			t.Fatalf("%d components, want 8", c)
		}
		matchReference(t, g, out)
	})

	t.Run("self_loops_and_duplicates", func(t *testing.T) {
		const n = 80
		out := make([][]int32, n)
		for v := range out {
			for range 12 {
				// Targets in [-5, n+5): self-loops, repeats, reverse
				// links and out-of-range entries all occur.
				out[v] = append(out[v], int32(rng.IntN(n+10)-5), int32(v))
			}
		}
		matchReference(t, graph.FromAdjacency(out), out)
	})

	t.Run("churned", func(t *testing.T) {
		w := sim.MustNew(sim.Config{Protocol: core.Newscast, ViewSize: 10, Seed: 41})
		w.Add(nil)
		for i := 1; i < 400; i++ {
			w.Add([]core.Descriptor[sim.NodeID]{{Addr: sim.NodeID(rng.IntN(i))}})
		}
		w.Run(15)
		w.KillFraction(0.3)
		w.Run(2)
		snap := w.TakeSnapshot()
		index := make(map[sim.NodeID]int32, len(snap.IDs))
		for i, id := range snap.IDs {
			index[id] = int32(i)
		}
		out := make([][]int32, len(snap.IDs))
		for i, id := range snap.IDs {
			for _, d := range w.Node(id).View().Descriptors() {
				if t, live := index[d.Addr]; live {
					out[i] = append(out[i], t)
				}
			}
		}
		matchReference(t, snap.Graph, out)
	})
}

// twoCliques returns the out-lists of two disjoint cliques of a and b
// nodes.
func twoCliques(a, b int) [][]int32 {
	out := make([][]int32, a+b)
	for _, c := range [][2]int{{0, a}, {a, a + b}} {
		for u := c[0]; u < c[1]; u++ {
			for v := u + 1; v < c[1]; v++ {
				out[u] = append(out[u], int32(v))
			}
		}
	}
	return out
}

// TestPathSumsMatchesReference checks the bit-parallel kernel against one
// plain BFS per source: around the 64-source batch boundary, in exact mode
// from n = 0 up, on disconnected graphs and on a star, whose centre turns
// a one-node frontier into the whole graph's edges in one level.
func TestPathSumsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 1))
	sums := func(t *testing.T, out [][]int32, srcs []int) {
		t.Helper()
		g := graph.FromAdjacency(out)
		gotS, gotP := graph.PathSums(g, srcs)
		wantS, wantP := refFromAdjacency(out).pathSums(srcs)
		if gotS != wantS || gotP != wantP {
			t.Fatalf("%d sources: sum, pairs = %d, %d; reference %d, %d", len(srcs), gotS, gotP, wantS, wantP)
		}
	}

	t.Run("batches", func(t *testing.T) {
		out := graph.RandomOutViews(300, 3, rng)
		for _, k := range []int{1, 63, 64, 65, 128} {
			sums(t, out, refSampleIndices(300, k, rng))
		}
	})

	star := make([][]int32, 200)
	for v := 1; v < len(star); v++ {
		star[v] = []int32{0}
	}
	isolated := append(graph.RandomOutViews(90, 3, rng), make([][]int32, 40)...)
	shapes := map[string][][]int32{
		"isolated":    isolated,
		"two_cliques": twoCliques(50, 30),
		"star":        star,
	}
	for _, n := range []int{0, 1, 2, 65, 130} {
		out := make([][]int32, n)
		if n > 4 {
			out = graph.RandomOutViews(n, 2, rng)
		} else if n == 2 {
			out[0] = []int32{1}
		}
		shapes[fmt.Sprintf("n=%d", n)] = out
	}
	for name, out := range shapes {
		t.Run(name, func(t *testing.T) {
			n := len(out)
			sums(t, out, refSampleIndices(n, n, nil))
			if n > 0 {
				sums(t, out, refSampleIndices(n, min(n, 65), rng))
			}
			matchReference(t, graph.FromAdjacency(out), out)
		})
	}
}

// FuzzFromRows checks the row builder and every analysis against the
// reference on arbitrary rows: each pair of input bytes is a node and a
// signed target, so self-references, duplicates and out-of-range targets
// (negative or past n) all occur.
func FuzzFromRows(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{6, 0, 0, 1, 1, 0, 1, 1, 0, 2, 200, 3, 7, 4, 5})
	f.Add([]byte{1})
	f.Add([]byte{0, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 48
		out := make([][]int32, n)
		for i := 1; n > 0 && i+1 < len(data); i += 2 {
			v := int(data[i]) % n
			out[v] = append(out[v], int32(int8(data[i+1])))
		}
		calls := 0
		g := graph.FromRows(n, func(i int, dst []int32) []int32 {
			if i != calls {
				t.Fatalf("row %d requested, want %d", i, calls)
			}
			calls++
			return append(dst, out[i]...)
		})
		if calls != n {
			t.Fatalf("%d rows requested, want %d", calls, n)
		}
		matchReference(t, g, out)
	})
}

// FuzzPathLength checks both path-length entry points and the kernel
// under them against one plain BFS per source, on graphs of up to 255
// nodes, so that source batches cross the 64-bit word. The first byte is
// n, the second a signed source count, and each later pair of bytes a
// node and a target.
func FuzzPathLength(f *testing.F) {
	f.Add([]byte{5, 2, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{130, 65, 0, 1, 1, 2, 64, 65, 65, 66, 127, 0})
	f.Add([]byte{70, 0, 0, 69})
	f.Add([]byte{3, 0xfe})
	f.Add([]byte{0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, k := int(data[0]), int(int8(data[1]))
		out := make([][]int32, n)
		for i := 2; n > 0 && i+1 < len(data); i += 2 {
			v := int(data[i]) % n
			out[v] = append(out[v], int32(data[i+1]))
		}
		g := graph.FromRows(n, func(i int, dst []int32) []int32 { return append(dst, out[i]...) })
		ref := refFromAdjacency(out)

		gotL, gotP := g.AveragePathLength()
		wantL, wantP := ref.averagePathLength()
		if gotL != wantL || gotP != wantP {
			t.Fatalf("AveragePathLength = %v over %d; reference %v over %d", gotL, gotP, wantL, wantP)
		}
		gotL, gotP = g.EstimatePathLength(k, rand.New(rand.NewPCG(uint64(n), 3)))
		wantL, wantP = ref.estimatePathLength(k, rand.New(rand.NewPCG(uint64(n), 3)))
		if gotL != wantL || gotP != wantP {
			t.Fatalf("EstimatePathLength(%d) = %v over %d; reference %v over %d", k, gotL, gotP, wantL, wantP)
		}
		srcs := refSampleIndices(n, min(max(k, 0), n), rand.New(rand.NewPCG(uint64(n), 4)))
		gotS, gotSP := graph.PathSums(g, srcs)
		wantS, wantSP := ref.pathSums(srcs)
		if gotS != wantS || gotSP != wantSP {
			t.Fatalf("%d sources: sum, pairs = %d, %d; reference %d, %d", len(srcs), gotS, gotSP, wantS, wantSP)
		}
	})
}
