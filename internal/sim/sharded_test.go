package sim

import (
	"reflect"
	"runtime"
	"testing"

	"peersampling/internal/core"
	"peersampling/internal/stats"
)

// shardedResult captures everything an experiment would publish from a
// run: the exact view contents of every live node plus the uniformity
// statistics of the indegree distribution. Bit-identical replay means all
// of it matches exactly, floats included.
type shardedResult struct {
	views    [][]core.Descriptor[NodeID]
	chi      float64
	entropy  float64
	deadLink int
}

// runShardedExperiment runs a fixed experiment — grow, gossip, a 20%
// catastrophe, gossip again — entirely on the staged driver with the
// given protocol and worker count.
func runShardedExperiment(proto core.Protocol, workers int) shardedResult {
	w := MustNew(Config{Protocol: proto, ViewSize: 8, Seed: 99})
	const n = 300
	for i := 0; i < n; i++ {
		w.Add(nil)
	}
	for i := 0; i < n; i++ {
		w.Node(NodeID(i)).Bootstrap([]core.Descriptor[NodeID]{
			{Addr: NodeID((i + 1) % n), Hop: 0},
		})
	}
	w.RunSharded(10, workers)
	w.KillFraction(0.2)
	w.RunSharded(10, workers)

	res := shardedResult{deadLink: w.DeadLinks()}
	indeg := make([]int, w.Size())
	for _, id := range w.LiveIDs() {
		v := w.Node(id).View()
		res.views = append(res.views, v.Descriptors())
		for i := 0; i < v.Len(); i++ {
			indeg[v.At(i).Addr]++
		}
	}
	res.chi = stats.ChiSquareUniform(indeg)
	res.entropy = stats.NormalizedEntropy(indeg)
	return res
}

// TestShardedDeterminismAcrossWorkers is the staged driver's central
// property: for a fixed seed the run replays bit-identically — same view
// snapshots, same uniformity statistics — at every worker count and every
// GOMAXPROCS. Workers=1 serves as the reference execution (a plain
// sequential staged cycle); every parallel execution must match it.
// Lpbcast's rand view selection also draws on the workers' shared merge
// scratch for its index permutation.
func TestShardedDeterminismAcrossWorkers(t *testing.T) {
	gomaxprocs := []int{1, 4, runtime.NumCPU()}
	workerCounts := []int{0, 1, 2, 3, 7, 16} // 0 = GOMAXPROCS default
	for _, proto := range []core.Protocol{core.Newscast, core.Lpbcast} {
		want := runShardedExperiment(proto, 1)
		if len(want.views) != 240 {
			t.Fatalf("%v: reference run has %d live views, want 240", proto, len(want.views))
		}
		for _, procs := range gomaxprocs {
			prev := runtime.GOMAXPROCS(procs)
			for _, workers := range workerCounts {
				got := runShardedExperiment(proto, workers)
				if !reflect.DeepEqual(got.views, want.views) {
					runtime.GOMAXPROCS(prev)
					t.Fatalf("%v GOMAXPROCS=%d workers=%d: view snapshots diverge from the sequential reference", proto, procs, workers)
				}
				if got.chi != want.chi || got.entropy != want.entropy || got.deadLink != want.deadLink {
					runtime.GOMAXPROCS(prev)
					t.Fatalf("%v GOMAXPROCS=%d workers=%d: statistics diverge: chi %v vs %v, entropy %v vs %v, dead links %d vs %d",
						proto, procs, workers, got.chi, want.chi, got.entropy, want.entropy, got.deadLink, want.deadLink)
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// TestShardedKeepsOverlayConnected checks the staged schedule is a sound
// gossip execution in its own right: the studied protocols must still
// converge a ring into a connected overlay under it. The (tail, head)
// pair is excluded: selecting the oldest peer while keeping the freshest
// descriptors is already the paper's most partition-prone combination,
// and under a fully synchronized schedule (everyone ages, then everyone
// exchanges) it reliably fragments — a property of the protocol, not a
// driver bug, and one reason experiments must not mix drivers.
func TestShardedKeepsOverlayConnected(t *testing.T) {
	for _, proto := range core.StudiedProtocols() {
		proto := proto
		if proto.PeerSel == core.PeerTail && proto.ViewSel == core.ViewHead {
			continue
		}
		t.Run(proto.String(), func(t *testing.T) {
			w := MustNew(Config{Protocol: proto, ViewSize: 15, Seed: 7})
			seedRing(t, w, 60)
			w.RunSharded(60, 4)
			snap := w.TakeSnapshot()
			if !snap.Graph.Components().Connected() {
				t.Errorf("%v produced a disconnected overlay under the staged driver", proto)
			}
		})
	}
}

// TestShardedCycleSteadyStateAllocs pins the staged driver's steady-state
// allocation behaviour: once the engine's slot and inbox storage has
// grown to the population size, a single-worker cycle costs only the
// three escaping stage closures — a constant, not a function of the
// population size (the budget would read in the thousands if any
// per-node path still allocated).
func TestShardedCycleSteadyStateAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	for _, proto := range []core.Protocol{core.Newscast, core.Lpbcast} {
		w := MustNew(Config{Protocol: proto, ViewSize: 8, Seed: 5})
		seedRing(t, w, 200)
		// Grow all scratch to steady state: Lpbcast's push-only views need
		// about 15 staged cycles to fill from the ring, and each slot's
		// request buffer grows with its initiator's view until then.
		w.RunSharded(20, 1)
		got := testing.AllocsPerRun(10, func() { w.RunCycleSharded(1) })
		if got > 3 {
			t.Errorf("%v: steady-state staged cycle allocates %.1f times, want <= 3", proto, got)
		}
	}
}

// TestAppendLiveIDsAscending is the regression test for the cycle
// drivers' ordering invariant: the initiator list is always built in
// ascending ID order, holes and all, so the seeded shuffle (or the staged
// schedule) is the only source of ordering randomness. A driver iterating
// liveness state in nondeterministic order would break fixed-seed replay.
func TestAppendLiveIDsAscending(t *testing.T) {
	w := MustNew(testConfig(core.Newscast))
	seedRing(t, w, 50)
	for _, id := range []NodeID{0, 7, 13, 13, 49} {
		w.Kill(id)
	}
	// Reuse a dirty scratch slice to check the append contract too.
	dirty := make([]NodeID, 3, 64)
	ids := w.appendLiveIDs(dirty[:0])
	if len(ids) != w.LiveCount() {
		t.Fatalf("got %d ids, want %d", len(ids), w.LiveCount())
	}
	for i, id := range ids {
		if !w.Alive(id) {
			t.Errorf("dead node %d listed", id)
		}
		if i > 0 && ids[i-1] >= id {
			t.Fatalf("ids not strictly ascending at %d: %d >= %d", i, ids[i-1], id)
		}
	}
	if !reflect.DeepEqual(ids, w.LiveIDs()) {
		t.Error("appendLiveIDs and LiveIDs disagree")
	}
}

// TestSequentialCycleSteadyStateAllocs pins the sequential driver's
// exchange hot path: after warm-up, a RunCycle must not allocate — the
// request/response buffers and the initiator list all live in network
// scratch.
func TestSequentialCycleSteadyStateAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	for _, proto := range []core.Protocol{core.Newscast, core.Lpbcast} {
		w := MustNew(Config{Protocol: proto, ViewSize: 8, Seed: 5})
		seedRing(t, w, 200)
		w.Run(5)
		got := testing.AllocsPerRun(10, func() { w.RunCycle() })
		if got > 0 {
			t.Errorf("%v: steady-state sequential cycle allocates %.1f times, want 0", proto, got)
		}
	}
}
