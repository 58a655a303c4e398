package sim

import (
	"testing"

	"peersampling/internal/core"
)

// TestAllTwentySevenProtocolsRunSafely drives every point of the paper's
// 3x3x3 design space — including the 19 degenerate combinations — through
// joins, cycles and failures, and checks the structural invariants that
// must hold regardless of protocol quality: views stay within capacity,
// never contain the owner, stay hop-ordered, and the engine never panics.
func TestAllTwentySevenProtocolsRunSafely(t *testing.T) {
	for _, proto := range core.AllProtocols() {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Protocol: proto, ViewSize: 6, Seed: 11}
			w := MustNew(cfg)
			seedRing(t, w, 40)
			w.Run(15)
			// Mid-run churn: a join and a failure.
			w.Add([]core.Descriptor[NodeID]{{Addr: 0, Hop: 0}})
			w.Kill(1)
			w.Run(15)

			for id := 0; id < w.Size(); id++ {
				v := w.Node(NodeID(id)).View()
				if v.Len() > cfg.ViewSize {
					t.Fatalf("node %d view %d exceeds cap %d", id, v.Len(), cfg.ViewSize)
				}
				if v.Contains(NodeID(id)) {
					t.Fatalf("node %d stored itself", id)
				}
				for i := 1; i < v.Len(); i++ {
					if v.At(i).Hop < v.At(i-1).Hop {
						t.Fatalf("node %d view not hop-ordered: %v", id, v)
					}
				}
			}
			// Dead-link accounting stays consistent with the alive set.
			dead := w.DeadLinks()
			manual := 0
			for id := 0; id < w.Size(); id++ {
				if !w.Alive(NodeID(id)) {
					continue
				}
				v := w.Node(NodeID(id)).View()
				for i := 0; i < v.Len(); i++ {
					if !w.Alive(v.At(i).Addr) {
						manual++
					}
				}
			}
			if dead != manual {
				t.Fatalf("DeadLinks() = %d, manual count %d", dead, manual)
			}
		})
	}
}
