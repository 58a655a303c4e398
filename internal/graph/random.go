package graph

import (
	"fmt"
	"math/rand/v2"
)

// RandomOutViews returns n directed out-views in which every node holds c
// distinct uniform random other nodes — the idealised overlay induced by a
// perfectly uniform peer sampling service. This is the baseline topology
// the paper compares every gossip protocol against (the horizontal lines
// in its figures).
func RandomOutViews(n, c int, rng *rand.Rand) [][]int32 {
	if c >= n {
		panic(fmt.Sprintf("graph: cannot draw %d distinct peers from %d nodes", c, n))
	}
	out := make([][]int32, n)
	for v := 0; v < n; v++ {
		view := make([]int32, 0, c)
		// Rejection sampling: c << n in all experiments, so collisions
		// are rare and this beats shuffling n entries per node.
		seen := make(map[int32]struct{}, c)
		for len(view) < c {
			u := int32(rng.IntN(n))
			if int(u) == v {
				continue
			}
			if _, dup := seen[u]; dup {
				continue
			}
			seen[u] = struct{}{}
			view = append(view, u)
		}
		out[v] = view
	}
	return out
}
