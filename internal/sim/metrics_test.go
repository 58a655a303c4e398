package sim

import (
	"math/rand/v2"
	"testing"

	"peersampling/internal/core"
	"peersampling/internal/graph"
)

// randomStart returns n nodes whose views hold c distinct random peers
// each, as the paper's random start does.
func randomStart(cfg Config, n int) *Network {
	w := MustNew(cfg)
	for range n {
		w.Add(nil)
	}
	views := graph.RandomOutViews(n, cfg.ViewSize, rand.New(rand.NewPCG(cfg.Seed, 0xB007)))
	boot := make([]core.Descriptor[NodeID], cfg.ViewSize)
	for id, view := range views {
		for i, peer := range view {
			boot[i] = core.Descriptor[NodeID]{Addr: peer}
		}
		w.Node(NodeID(id)).Bootstrap(boot)
	}
	return w
}

// TestObserveComponentsMatchFloodFill checks Observe's connectivity
// figures, which it takes from the path-length pass when every source
// reached every node, against a flood fill of the same overlay: after a
// 50 % kill at a small view size, and through a growing run of
// (tail,head,push), which fragments. Both runs must show at least one
// fragmented overlay, so both of Observe's branches are taken.
func TestObserveComponentsMatchFloodFill(t *testing.T) {
	configs := []MetricsConfig{{}, {PathSources: 1, ClusteringSample: 5}, {PathSources: 40, ClusteringSample: 20}}
	check := func(t *testing.T, w *Network) (fragmented bool) {
		t.Helper()
		want := w.TakeSnapshot().Graph.Components()
		for _, mc := range configs {
			o := w.Observe(mc)
			if o.Components != want.Count || o.Largest != want.Largest {
				t.Fatalf("cycle %d, %+v: Observe gives %d components, largest %d; flood fill %d, %d",
					w.Cycle(), mc, o.Components, o.Largest, want.Count, want.Largest)
			}
		}
		return want.Count > 1
	}

	t.Run("kill", func(t *testing.T) {
		fragmented := false
		for seed := range uint64(4) {
			w := randomStart(Config{Protocol: core.Newscast, ViewSize: 3, Seed: seed}, 200)
			w.Run(10)
			check(t, w)
			w.KillFraction(0.5)
			for range 3 {
				fragmented = check(t, w) || fragmented
				w.RunCycle()
			}
		}
		if !fragmented {
			t.Error("no overlay fragmented")
		}
	})

	t.Run("growing", func(t *testing.T) {
		proto := core.Protocol{PeerSel: core.PeerTail, ViewSel: core.ViewHead, Prop: core.Push}
		w := MustNew(Config{Protocol: proto, ViewSize: 8, Seed: 5})
		w.Add(nil)
		contact := []core.Descriptor[NodeID]{{Addr: 0}}
		fragmented := false
		for range 40 {
			for range 10 {
				if w.Size() < 300 {
					w.Add(contact)
				}
			}
			w.RunCycle()
			fragmented = check(t, w) || fragmented
		}
		if !fragmented {
			t.Error("no overlay fragmented")
		}
	})
}

// BenchmarkObserve measures one observation at the settings of the
// paper's Figures 2 and 3 as psbench's paper_dynamics runs them: 10^4
// Newscast nodes with c = 30, warmed up for 5 cycles, 24 path-length
// sources and 600 clustering samples.
func BenchmarkObserve(b *testing.B) {
	w := randomStart(Config{Protocol: core.Newscast, ViewSize: 30, Seed: 1}, 10_000)
	w.Run(5)
	mc := MetricsConfig{PathSources: 24, ClusteringSample: 600, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if o := w.Observe(mc); o.Components != 1 {
			b.Fatalf("%d components", o.Components)
		}
	}
}
