package main

import (
	"fmt"

	"peersampling/internal/graph"
)

// checkView verifies the invariants every partial view must hold: at most
// c entries (exactly c when full is set), never the owner, no address
// twice, and only addresses that exist.
func checkView[A comparable](self A, view []A, c int, full bool, exists func(A) bool) error {
	if len(view) > c {
		return fmt.Errorf("view of %v holds %d entries, capacity %d", self, len(view), c)
	}
	if full && len(view) != c {
		return fmt.Errorf("view of %v holds %d entries, want a full view of %d", self, len(view), c)
	}
	for i, a := range view {
		if a == self {
			return fmt.Errorf("view of %v contains its owner", self)
		}
		if !exists(a) {
			return fmt.Errorf("view of %v names %v, which never existed", self, a)
		}
		for _, b := range view[:i] {
			if a == b {
				return fmt.Errorf("view of %v names %v twice", self, a)
			}
		}
	}
	return nil
}

// components counts the connected components of the undirected overlay
// over n nodes in which node i is linked to every entry of view(i).
func components(n int, view func(i int) []int32) int {
	dsu := graph.NewDSU(n)
	for i := range n {
		for _, j := range view(i) {
			dsu.Union(int32(i), j)
		}
	}
	return dsu.Count()
}
