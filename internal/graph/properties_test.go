package graph

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// randomTestGraph builds an arbitrary simple graph from fuzz input.
func randomTestGraph(seed uint64, nRaw, mRaw uint8) *Graph {
	rng := rand.New(rand.NewPCG(seed, 77))
	n := int(nRaw)%25 + 2
	m := int(mRaw) % 60
	edges := make([][2]int32, m)
	for i := range edges {
		edges[i] = [2]int32{int32(rng.IntN(n)), int32(rng.IntN(n))}
	}
	return newUndirected(n, edges)
}

func TestClusteringBoundsProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		g := randomTestGraph(seed, nRaw, mRaw)
		c := g.Clustering()
		if c < 0 || c > 1 {
			return false
		}
		stamp := make([]uint32, g.NumNodes())
		for v := 0; v < g.NumNodes(); v++ {
			lc := g.clusteringOf(int32(v), stamp, uint32(v)+1)
			if lc < 0 || lc > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPathLengthDiameterProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		g := randomTestGraph(seed, nRaw, mRaw)
		avg, pairs := g.AveragePathLength()
		d := diameter(g)
		if avg < 0 {
			return false
		}
		// Average over reachable pairs can never exceed the diameter.
		if pairs > 0 && avg > float64(d) {
			return false
		}
		// Any graph with an edge has diameter >= 1 and avg >= 1.
		if g.NumEdges() > 0 && (d < 1 || avg < 1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeSumProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		g := randomTestGraph(seed, nRaw, mRaw)
		sum := 0
		for v := 0; v < g.NumNodes(); v++ {
			sum += g.Degree(int32(v))
		}
		// Handshake lemma.
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestComponentSizesSumProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		g := randomTestGraph(seed, nRaw, mRaw)
		stats := g.Components()
		sum := 0
		for _, s := range stats.Sizes {
			sum += s
		}
		return sum == g.NumNodes() && stats.Largest <= g.NumNodes() &&
			stats.OutsideLargest() == g.NumNodes()-stats.Largest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
