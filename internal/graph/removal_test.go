package graph

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestRemovalSweepMatchesDirectRecomputation(t *testing.T) {
	// Property: for a fixed removal order (fixed rng seed), the sweep's
	// checkpoint statistics must equal those from rebuilding the damaged
	// graph from scratch.
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%30 + 5
		m := int(mRaw) % 80
		edgeRng := rand.New(rand.NewPCG(seed, 1))
		edges := make([][2]int32, m)
		for i := range edges {
			edges[i] = [2]int32{int32(edgeRng.IntN(n)), int32(edgeRng.IntN(n))}
		}
		g := newUndirected(n, edges)

		checkpoints := []int{0, n / 4, n / 2, 3 * n / 4, n}
		sweep := RemovalSweep(g, checkpoints, rand.New(rand.NewPCG(seed, 2)))

		// Reproduce the removal order with the same seed.
		order := rand.New(rand.NewPCG(seed, 2)).Perm(n)
		for i, cp := range checkpoints {
			dead := make(map[int]bool, cp)
			for _, v := range order[:cp] {
				dead[v] = true
			}
			// Rebuild the surviving graph with compacted ids.
			remap := make([]int32, n)
			survivors := 0
			for v := 0; v < n; v++ {
				if !dead[v] {
					remap[v] = int32(survivors)
					survivors++
				}
			}
			var keptEdges [][2]int32
			for v := 0; v < n; v++ {
				if dead[v] {
					continue
				}
				for _, u := range g.adj[v] {
					if !dead[int(u)] && u > int32(v) {
						keptEdges = append(keptEdges, [2]int32{remap[v], remap[u]})
					}
				}
			}
			sub := newUndirected(survivors, keptEdges)
			stats := sub.Components()
			want := SweepPoint{
				Removed:        cp,
				Survivors:      survivors,
				Components:     stats.Count,
				Largest:        stats.Largest,
				OutsideLargest: stats.OutsideLargest(),
			}
			if survivors == 0 {
				want.Components = 0
				want.Largest = 0
				want.OutsideLargest = 0
			}
			if sweep[i] != want {
				t.Logf("checkpoint %d: sweep %+v direct %+v", cp, sweep[i], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRemovalSweepCheckpointOrderIrrelevant(t *testing.T) {
	g := fromAdjacency(RandomOutViews(100, 4, rand.New(rand.NewPCG(3, 3))))
	a := RemovalSweep(g, []int{10, 50, 90}, rand.New(rand.NewPCG(5, 5)))
	b := RemovalSweep(g, []int{90, 10, 50}, rand.New(rand.NewPCG(5, 5)))
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("checkpoint %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRemovalSweepPanicsOnBadCheckpoint(t *testing.T) {
	g := complete(4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range checkpoint")
		}
	}()
	RemovalSweep(g, []int{5}, rand.New(rand.NewPCG(1, 1)))
}

func TestRemovalSweepFullRemoval(t *testing.T) {
	g := complete(6)
	pts := RemovalSweep(g, []int{6}, rand.New(rand.NewPCG(1, 1)))
	if pts[0].Survivors != 0 || pts[0].Largest != 0 || pts[0].OutsideLargest != 0 {
		t.Errorf("full removal point = %+v", pts[0])
	}
}

func TestRandomViewGraphProperties(t *testing.T) {
	const n, c = 400, 10
	rng := rand.New(rand.NewPCG(11, 11))
	views := RandomOutViews(n, c, rng)
	for v, view := range views {
		if len(view) != c {
			t.Fatalf("node %d has %d out-links, want %d", v, len(view), c)
		}
		seen := map[int32]bool{}
		for _, u := range view {
			if int(u) == v {
				t.Fatalf("node %d links to itself", v)
			}
			if seen[u] {
				t.Fatalf("node %d has duplicate link to %d", v, u)
			}
			seen[u] = true
		}
	}
	g := fromAdjacency(views)
	lo, _ := g.MinMaxDegree()
	if lo < c {
		t.Errorf("min degree %d below out-view size %d", lo, c)
	}
	// Average degree of the union graph is near 2c(1 - c/(2(n-1))); for
	// n=400, c=10 that is ~19.87.
	if avg := g.AverageDegree(); avg < 19.0 || avg > 20.0 {
		t.Errorf("average degree %v outside expected band", avg)
	}
	if !g.Components().Connected() {
		t.Error("random view graph disconnected (vanishingly unlikely)")
	}
}

func TestRandomOutViewsPanicsWhenTooDense(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic when c >= n")
		}
	}()
	RandomOutViews(3, 3, rand.New(rand.NewPCG(1, 1)))
}

func TestRingLattice(t *testing.T) {
	g := ringLattice(10, 2)
	for v := 0; v < 10; v++ {
		if g.Degree(int32(v)) != 4 {
			t.Fatalf("node %d degree = %d want 4", v, g.Degree(int32(v)))
		}
	}
	// Watts-Strogatz: clustering of a k=2 ring lattice is 0.5.
	if got := g.Clustering(); got < 0.49 || got > 0.51 {
		t.Errorf("lattice clustering = %v want 0.5", got)
	}
}
