package graph

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// fromAdjacency builds the graph of directed out-neighbour lists, one per
// node, through FromRows.
func fromAdjacency(out [][]int32) *Graph {
	return FromRows(len(out), func(i int, dst []int32) []int32 {
		return append(dst, out[i]...)
	})
}

// newUndirected builds a graph with n nodes from an edge list.
func newUndirected(n int, edges [][2]int32) *Graph {
	out := make([][]int32, n)
	for _, e := range edges {
		out[e[0]] = append(out[e[0]], e[1])
	}
	return fromAdjacency(out)
}

// ringLattice links each of n nodes on a ring to its k nearest
// neighbours on each side (so degree 2k): a high-diameter,
// high-clustering reference topology.
func ringLattice(n, k int) *Graph {
	edges := make([][2]int32, 0, n*k)
	for v := 0; v < n; v++ {
		for d := 1; d <= k; d++ {
			edges = append(edges, [2]int32{int32(v), int32((v + d) % n)})
		}
	}
	return newUndirected(n, edges)
}

// hasEdge reports whether the undirected edge {a,b} exists.
func hasEdge(g *Graph, a, b int32) bool {
	_, found := slices.BinarySearch(g.adj[a], b)
	return found
}

// diameter returns the largest finite shortest-path distance in g (0
// for graphs with fewer than two nodes or no edges).
func diameter(g *Graph) int {
	var d int32
	for v := range g.adj {
		d = max(d, slices.Max(append(g.BFS(int32(v)), 0)))
	}
	return int(d)
}

// triangle returns K3.
func triangle() *Graph {
	return newUndirected(3, [][2]int32{{0, 1}, {1, 2}, {2, 0}})
}

// path4 returns the path 0-1-2-3.
func path4() *Graph {
	return newUndirected(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
}

// star returns a star with center 0 and k leaves.
func star(k int) *Graph {
	edges := make([][2]int32, k)
	for i := 0; i < k; i++ {
		edges[i] = [2]int32{0, int32(i + 1)}
	}
	return newUndirected(k+1, edges)
}

// complete returns K_n.
func complete(n int) *Graph {
	var edges [][2]int32
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int32{int32(i), int32(j)})
		}
	}
	return newUndirected(n, edges)
}

func TestNewUndirectedDedupAndLoops(t *testing.T) {
	g := newUndirected(3, [][2]int32{{0, 1}, {1, 0}, {0, 1}, {2, 2}})
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d want 1", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Errorf("self-loop created degree: %d", g.Degree(2))
	}
	if !hasEdge(g, 0, 1) || !hasEdge(g, 1, 0) {
		t.Error("edge 0-1 missing")
	}
	if hasEdge(g, 0, 2) {
		t.Error("phantom edge 0-2")
	}
}

func TestFromAdjacency(t *testing.T) {
	// Node 0 knows 1 and 2; node 1 knows 0 (duplicate direction) and a
	// dead index 9 (dropped); node 2 knows itself (dropped).
	g := fromAdjacency([][]int32{{1, 2}, {0, 9}, {2}})
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d want 2", g.NumEdges())
	}
	if !hasEdge(g, 0, 1) || !hasEdge(g, 0, 2) || hasEdge(g, 1, 2) {
		t.Error("wrong edge set")
	}
}

func TestDegrees(t *testing.T) {
	g := star(4)
	if got := g.Degree(0); got != 4 {
		t.Errorf("center degree = %d want 4", got)
	}
	if got := g.Degree(1); got != 1 {
		t.Errorf("leaf degree = %d want 1", got)
	}
	if got := g.AverageDegree(); math.Abs(got-8.0/5.0) > 1e-12 {
		t.Errorf("avg degree = %v want 1.6", got)
	}
	lo, hi := g.MinMaxDegree()
	if lo != 1 || hi != 4 {
		t.Errorf("min,max = %d,%d", lo, hi)
	}
}

func TestAverageDegreeEmpty(t *testing.T) {
	g := newUndirected(0, nil)
	if g.AverageDegree() != 0 {
		t.Error("empty graph average degree != 0")
	}
	lo, hi := g.MinMaxDegree()
	if lo != 0 || hi != 0 {
		t.Error("empty graph min/max degree != 0")
	}
}

func TestClusteringKnownGraphs(t *testing.T) {
	if got := triangle().Clustering(); math.Abs(got-1) > 1e-12 {
		t.Errorf("triangle clustering = %v want 1", got)
	}
	if got := complete(5).Clustering(); math.Abs(got-1) > 1e-12 {
		t.Errorf("K5 clustering = %v want 1", got)
	}
	if got := path4().Clustering(); got != 0 {
		t.Errorf("path clustering = %v want 0", got)
	}
	if got := star(5).Clustering(); got != 0 {
		t.Errorf("star clustering = %v want 0", got)
	}
	// Triangle with a pendant: nodes 0,1,2 triangle; 3 attached to 0.
	// CC(0)=1/3 (neighbors 1,2,3: one edge of three possible),
	// CC(1)=CC(2)=1, CC(3)=0; average = (1/3+1+1+0)/4 = 7/12.
	g := newUndirected(4, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {0, 3}})
	if got, want := g.Clustering(), 7.0/12.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("pendant triangle clustering = %v want %v", got, want)
	}
}

func TestEstimateClusteringMatchesExactOnFullSample(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	g := fromAdjacency(RandomOutViews(200, 5, rng))
	exact := g.Clustering()
	if got := g.EstimateClustering(10_000, rng); math.Abs(got-exact) > 1e-12 {
		t.Errorf("full-sample estimate %v != exact %v", got, exact)
	}
	est := g.EstimateClustering(150, rng)
	if math.Abs(est-exact) > 0.05 {
		t.Errorf("sampled estimate %v too far from exact %v", est, exact)
	}
}

func TestBFS(t *testing.T) {
	g := path4()
	dist := g.BFS(0)
	want := []int32{0, 1, 2, 3}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %d want %d", i, dist[i], want[i])
		}
	}
	// Disconnected: add isolated node.
	g2 := newUndirected(3, [][2]int32{{0, 1}})
	if d := g2.BFS(0); d[2] != -1 {
		t.Errorf("unreachable distance = %d want -1", d[2])
	}
}

func TestAveragePathLength(t *testing.T) {
	// Path 0-1-2-3: ordered pairs distances: 1,2,3 each twice + 1,2 twice
	// + 1 twice -> sum = 2*(1+2+3) + 2*(1+2) + 2*1 = 12+6+2 = 20,
	// pairs = 12, avg = 5/3.
	got, pairs := path4().AveragePathLength()
	if pairs != 12 {
		t.Errorf("pairs = %d want 12", pairs)
	}
	if math.Abs(got-5.0/3.0) > 1e-12 {
		t.Errorf("avg path length = %v want 5/3", got)
	}
	if got, _ := complete(6).AveragePathLength(); math.Abs(got-1) > 1e-12 {
		t.Errorf("K6 path length = %v want 1", got)
	}
	// Star: leaves at distance 2 from each other, 1 from the center.
	// k=3: ordered pairs: center-leaf 1 (6 pairs), leaf-leaf 2 (6 pairs)
	// -> avg = (6*1+6*2)/12 = 1.5.
	if got, _ := star(3).AveragePathLength(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("star path length = %v want 1.5", got)
	}
}

func TestAveragePathLengthDisconnected(t *testing.T) {
	g := newUndirected(4, [][2]int32{{0, 1}, {2, 3}})
	got, pairs := g.AveragePathLength()
	if pairs != 4 || math.Abs(got-1) > 1e-12 {
		t.Errorf("got %v over %d pairs, want 1 over 4", got, pairs)
	}
	empty := newUndirected(3, nil)
	if got, pairs := empty.AveragePathLength(); got != 0 || pairs != 0 {
		t.Errorf("edgeless: got %v,%d want 0,0", got, pairs)
	}
}

func TestEstimatePathLength(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	g := fromAdjacency(RandomOutViews(300, 6, rng))
	exact, _ := g.AveragePathLength()
	if got, _ := g.EstimatePathLength(1000, rng); math.Abs(got-exact) > 1e-12 {
		t.Errorf("full-source estimate %v != exact %v", got, exact)
	}
	est, _ := g.EstimatePathLength(50, rng)
	if math.Abs(est-exact) > 0.15 {
		t.Errorf("sampled estimate %v too far from exact %v", est, exact)
	}
	tiny := newUndirected(1, nil)
	if got, _ := tiny.EstimatePathLength(5, rng); got != 0 {
		t.Error("single node path length != 0")
	}
}

// TestEstimatorsTreatNonPositiveAsExact pins the "0 means exact" knob
// that sim.MetricsConfig, scenario.Scale and psim document: a sample or
// source count <= 0 gives the exact value, as one >= n does, and draws
// nothing from rng.
func TestEstimatorsTreatNonPositiveAsExact(t *testing.T) {
	g := fromAdjacency(RandomOutViews(120, 4, rand.New(rand.NewPCG(3, 3))))
	wantC := g.Clustering()
	wantL, wantP := g.AveragePathLength()
	for _, k := range []int{0, -3} {
		rng := rand.New(rand.NewPCG(5, 5))
		if got := g.EstimateClustering(k, rng); got != wantC {
			t.Errorf("EstimateClustering(%d) = %v, want exact %v", k, got, wantC)
		}
		if got, pairs := g.EstimatePathLength(k, rng); got != wantL || pairs != wantP {
			t.Errorf("EstimatePathLength(%d) = %v over %d, want exact %v over %d", k, got, pairs, wantL, wantP)
		}
		if got, want := rng.Uint64(), rand.New(rand.NewPCG(5, 5)).Uint64(); got != want {
			t.Errorf("k = %d drew from rng", k)
		}
	}
}

func TestComponents(t *testing.T) {
	g := newUndirected(7, [][2]int32{{0, 1}, {1, 2}, {3, 4}})
	stats := g.Components()
	if stats.Count != 4 {
		t.Errorf("count = %d want 4", stats.Count)
	}
	if stats.Largest != 3 {
		t.Errorf("largest = %d want 3", stats.Largest)
	}
	if stats.OutsideLargest() != 4 {
		t.Errorf("outside largest = %d want 4", stats.OutsideLargest())
	}
	if stats.Connected() {
		t.Error("disconnected graph reported connected")
	}
	wantSizes := []int{3, 2, 1, 1}
	for i, s := range wantSizes {
		if stats.Sizes[i] != s {
			t.Errorf("sizes = %v want %v", stats.Sizes, wantSizes)
			break
		}
	}
	if !triangle().Components().Connected() {
		t.Error("triangle reported disconnected")
	}
}

func TestComponentSizesDescending(t *testing.T) {
	// A forest of paths with sizes 7, 1, 4, 9, 4 and 2, in that order.
	var edges [][2]int32
	n := 0
	for _, size := range []int{7, 1, 4, 9, 4, 2} {
		for i := 1; i < size; i++ {
			edges = append(edges, [2]int32{int32(n + i - 1), int32(n + i)})
		}
		n += size
	}
	cases := []struct {
		name  string
		g     *Graph
		sizes []int
	}{
		{"isolated", newUndirected(500, nil), slices.Repeat([]int{1}, 500)},
		{"forest", newUndirected(n, edges), []int{9, 7, 4, 4, 2, 1}},
	}
	for _, c := range cases {
		stats := c.g.Components()
		if !slices.Equal(stats.Sizes, c.sizes) {
			t.Errorf("%s: sizes = %v want %v", c.name, stats.Sizes, c.sizes)
		}
		sum := 0
		for _, s := range stats.Sizes {
			sum += s
		}
		if sum != c.g.NumNodes() || stats.Count != len(c.sizes) || stats.Largest != c.sizes[0] {
			t.Errorf("%s: sizes sum to %d of %d nodes, count %d, largest %d",
				c.name, sum, c.g.NumNodes(), stats.Count, stats.Largest)
		}
	}
}

func TestDSUBasics(t *testing.T) {
	d := NewDSU(4)
	if d.Count() != 4 {
		t.Fatalf("count = %d", d.Count())
	}
	if !d.Union(0, 1) || d.Union(0, 1) {
		t.Error("union return values wrong")
	}
	if d.Find(0) != d.Find(1) {
		t.Error("0 and 1 not merged")
	}
	if d.SizeOf(1) != 2 {
		t.Errorf("size = %d want 2", d.SizeOf(1))
	}
	if d.Count() != 3 {
		t.Errorf("count = %d want 3", d.Count())
	}
}

func TestDSUMatchesBFSComponents(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := int(nRaw)%20 + 2
		m := int(mRaw) % 40
		edges := make([][2]int32, m)
		for i := range edges {
			edges[i] = [2]int32{int32(rng.IntN(n)), int32(rng.IntN(n))}
		}
		g := newUndirected(n, edges)
		stats := g.Components()
		// Independent check via BFS flood fill.
		seen := make([]bool, n)
		count, largest := 0, 0
		for v := 0; v < n; v++ {
			if seen[v] {
				continue
			}
			count++
			size := 0
			for _, dist := range g.BFS(int32(v)) {
				_ = dist
			}
			dists := g.BFS(int32(v))
			for u, du := range dists {
				if du >= 0 && !seen[u] {
					seen[u] = true
					size++
				}
			}
			if size > largest {
				largest = size
			}
		}
		return stats.Count == count && stats.Largest == largest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
