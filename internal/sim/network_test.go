package sim

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"peersampling/internal/core"
)

func testConfig(proto core.Protocol) Config {
	return Config{Protocol: proto, ViewSize: 5, Seed: 1}
}

func seedRing(t *testing.T, w *Network, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		w.Add(nil)
	}
	for i := 0; i < n; i++ {
		w.Node(NodeID(i)).Bootstrap([]core.Descriptor[NodeID]{
			{Addr: NodeID((i + 1) % n), Hop: 0},
		})
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := New(Config{Protocol: core.Newscast, ViewSize: 0}); err == nil {
		t.Error("zero view size accepted")
	}
	if _, err := New(testConfig(core.Newscast)); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid config")
		}
	}()
	MustNew(Config{})
}

func TestAddAndAccessors(t *testing.T) {
	w := MustNew(testConfig(core.Newscast))
	id := w.Add([]core.Descriptor[NodeID]{{Addr: 7, Hop: 0}})
	if id != 0 || w.Size() != 1 || w.LiveCount() != 1 || !w.Alive(0) {
		t.Error("accessors wrong after Add")
	}
	if w.Config().ViewSize != 5 {
		t.Error("Config() wrong")
	}
	// Bootstrap descriptor for a not-yet-existing node is stored as-is;
	// views may name unknown peers (they count as dead until they join).
	if !w.Node(0).View().Contains(7) {
		t.Error("bootstrap descriptor missing")
	}
}

func TestRunCycleSpreadsMembership(t *testing.T) {
	w := MustNew(testConfig(core.Newscast))
	seedRing(t, w, 10)
	w.Run(20)
	if w.Cycle() != 20 {
		t.Errorf("cycle = %d want 20", w.Cycle())
	}
	// After 20 pushpull cycles on a 10-node ring every view must be full.
	for i := 0; i < 10; i++ {
		if got := w.Node(NodeID(i)).View().Len(); got != 5 {
			t.Errorf("node %d view len = %d want 5", i, got)
		}
	}
	snap := w.TakeSnapshot()
	if !snap.Graph.Components().Connected() {
		t.Error("overlay disconnected after 20 cycles")
	}
}

func TestObserveCountsDeadLinks(t *testing.T) {
	w := MustNew(Config{Protocol: core.Newscast, ViewSize: 8, Seed: 3})
	seedRing(t, w, 200)
	w.Run(10)
	w.KillFraction(0.3)
	if got, want := w.Observe(MetricsConfig{PathSources: 5, ClusteringSample: 5}).DeadLinks, w.DeadLinks(); got != want || want == 0 {
		t.Errorf("Observe DeadLinks = %d, DeadLinks() = %d, want equal and nonzero", got, want)
	}
}

func TestKillAndDeadLinks(t *testing.T) {
	w := MustNew(testConfig(core.Newscast))
	seedRing(t, w, 10)
	w.Run(10)
	if w.DeadLinks() != 0 {
		t.Errorf("dead links before any failure = %d", w.DeadLinks())
	}
	w.Kill(3)
	w.Kill(3) // idempotent
	if w.LiveCount() != 9 || w.Alive(3) {
		t.Error("kill bookkeeping wrong")
	}
	dead := w.DeadLinks()
	if dead == 0 {
		t.Error("no dead links after killing a known node")
	}
	// Dead links equal the number of live views containing node 3.
	count := 0
	for i := 0; i < 10; i++ {
		if i != 3 && w.Node(NodeID(i)).View().Contains(3) {
			count++
		}
	}
	if dead != count {
		t.Errorf("dead links = %d want %d", dead, count)
	}
}

func TestKillFraction(t *testing.T) {
	w := MustNew(testConfig(core.Newscast))
	seedRing(t, w, 20)
	killed := w.KillFraction(0.5)
	if len(killed) != 10 || w.LiveCount() != 10 {
		t.Errorf("killed %d, live %d", len(killed), w.LiveCount())
	}
	for _, id := range killed {
		if w.Alive(id) {
			t.Errorf("killed node %d still alive", id)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad fraction did not panic")
		}
	}()
	w.KillFraction(1.5)
}

func TestExchangeWithDeadPeerLeavesStateUntouched(t *testing.T) {
	w := MustNew(Config{Protocol: core.Newscast, ViewSize: 5, Seed: 3})
	// Node 0 knows only node 1, which is dead: its exchange must fail and
	// leave the view membership exactly as it was; only per-cycle aging
	// may touch the hop counts.
	w.Add(nil)
	w.Add(nil)
	w.Node(0).Bootstrap([]core.Descriptor[NodeID]{{Addr: 1, Hop: 2}})
	w.Node(1).Bootstrap([]core.Descriptor[NodeID]{{Addr: 0, Hop: 2}})
	w.Kill(1)
	before := w.Node(0).View().Descriptors()
	w.RunCycle()
	after := w.Node(0).View().Descriptors()
	if len(after) != len(before) {
		t.Fatalf("view size changed across failed exchange: %v -> %v", before, after)
	}
	if after[0].Addr != before[0].Addr || after[0].Hop != before[0].Hop+1 {
		t.Errorf("want same membership aged by one cycle, got %v -> %v", before, after)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		w := MustNew(Config{Protocol: core.Lpbcast, ViewSize: 4, Seed: 42})
		seedRing(t, w, 16)
		w.Run(15)
		degs := make([]int, 16)
		snap := w.TakeSnapshot()
		for i := range degs {
			degs[i], _ = snap.DegreeOf(NodeID(i))
		}
		return degs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("degree of node %d differs between identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSnapshotExcludesDeadNodes(t *testing.T) {
	w := MustNew(testConfig(core.Newscast))
	seedRing(t, w, 10)
	w.Run(10)
	w.Kill(0)
	snap := w.TakeSnapshot()
	if snap.Graph.NumNodes() != 9 {
		t.Errorf("snapshot has %d nodes want 9", snap.Graph.NumNodes())
	}
	if _, live := snap.DegreeOf(0); live {
		t.Error("dead node reported live")
	}
	if _, live := snap.DegreeOf(99); live {
		t.Error("unknown node reported live")
	}
	for compact, id := range snap.IDs {
		if id == 0 {
			t.Errorf("dead node 0 appears at compact index %d", compact)
		}
	}
}

func TestObserveExactAndSampled(t *testing.T) {
	// View size 15 on 30 nodes keeps Newscast-style head selection well
	// away from its genuine small-scale fragmentation regime.
	w := MustNew(Config{Protocol: core.Newscast, ViewSize: 15, Seed: 1})
	seedRing(t, w, 30)
	w.Run(20)
	exact := w.Observe(MetricsConfig{})
	if exact.LiveNodes != 30 || exact.Cycle != 20 {
		t.Errorf("observation header wrong: %+v", exact)
	}
	if exact.Components != 1 || exact.Largest != 30 {
		t.Errorf("connectivity wrong: %+v", exact)
	}
	if exact.AvgDegree < 15 || exact.AvgDegree > 29 {
		t.Errorf("avg degree %v implausible for c=15 on 30 nodes", exact.AvgDegree)
	}
	if exact.MinDegree < 1 || exact.MaxDegree < exact.MinDegree {
		t.Errorf("degree range wrong: %+v", exact)
	}
	sampled := w.Observe(MetricsConfig{PathSources: 30, ClusteringSample: 30, Seed: 9})
	if sampled.PathLen != exact.PathLen {
		t.Errorf("full-sample path length %v != exact %v", sampled.PathLen, exact.PathLen)
	}
	if sampled.Clustering != exact.Clustering {
		t.Errorf("full-sample clustering %v != exact %v", sampled.Clustering, exact.Clustering)
	}
}

func TestDegrees(t *testing.T) {
	w := MustNew(testConfig(core.Newscast))
	seedRing(t, w, 12)
	w.Run(10)
	w.Kill(5)
	snap := w.TakeSnapshot()
	if len(snap.IDs) != 11 {
		t.Errorf("snapshot of %d nodes want 11", len(snap.IDs))
	}
	if _, ok := snap.DegreeOf(5); ok {
		t.Error("dead node has a degree")
	}
	if d, ok := snap.DegreeOf(0); !ok || d < 1 {
		t.Errorf("live node 0 degree = %d,%v", d, ok)
	}
}

func TestSamplePeer(t *testing.T) {
	w := MustNew(testConfig(core.Newscast))
	seedRing(t, w, 10)
	w.Run(5)
	p, err := w.SamplePeer(0)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Node(0).View().Contains(p) {
		t.Errorf("sampled peer %d not in node 0's view", p)
	}
}

func TestAllStudiedProtocolsStayConnectedFromRing(t *testing.T) {
	for _, proto := range core.StudiedProtocols() {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			w := MustNew(Config{Protocol: proto, ViewSize: 15, Seed: 7})
			seedRing(t, w, 60)
			w.Run(60)
			snap := w.TakeSnapshot()
			if !snap.Graph.Components().Connected() {
				t.Errorf("%v produced a disconnected overlay", proto)
			}
			lo, _ := snap.Graph.MinMaxDegree()
			if lo < 1 {
				t.Errorf("%v produced an isolated node", proto)
			}
		})
	}
}

// TestNodeHeapPerNode pins what a simulated node costs once its view is
// full and it has merged: its state — address, protocol, a view of c
// descriptors, an RNG — and nothing sized by the exchange. The merge
// scratch of up to 2c+1 descriptors is the network's, shared by all
// nodes; were it per node, a node would hold about 0.9 KB (Newscast) or
// 1.4 KB (Lpbcast, whose rand view selection adds an index buffer).
func TestNodeHeapPerNode(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const n, c = 10_000, 30
	for _, proto := range []core.Protocol{core.Newscast, core.Lpbcast} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w := MustNew(Config{Protocol: proto, ViewSize: c, Seed: 11})
		rng := rand.New(rand.NewPCG(11, 12))
		boot := make([]core.Descriptor[NodeID], c)
		for i := 0; i < n; i++ {
			for j := range boot {
				boot[j] = core.Descriptor[NodeID]{Addr: rng.Int32N(n)}
			}
			w.Add(boot)
		}
		w.Run(5)
		runtime.GC()
		runtime.ReadMemStats(&after)
		perNode := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
		runtime.KeepAlive(w)
		if perNode >= 500 {
			t.Errorf("%v: %d B of heap per node after warm-up, want < 500", proto, perNode)
		}
	}
}
