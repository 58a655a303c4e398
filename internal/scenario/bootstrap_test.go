package scenario

import (
	"testing"

	"peersampling/internal/core"
	"peersampling/internal/sim"
)

// tiny is the test scale: small enough for fast unit tests, big enough for
// the qualitative shapes to show. The view size must stay well above
// log2(N): Newscast-style head view selection genuinely fragments tiny
// overlays with small views (both parties leave an exchange with nearly
// identical views), which the paper's N=10^4, c=30 regime never hits.
var tiny = Scale{
	Name: "tiny", N: 150, ViewSize: 15, Cycles: 40,
	GrowthPerCycle: 8, Reps: 4, TracedNodes: 6,
	PathSources: 10, ClusteringSample: 60, MeasureEvery: 5,
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "medium", "full"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != name {
			t.Errorf("ScaleByName(%q) = %+v, %v", name, sc, err)
		}
		if err := sc.validate(); err != nil {
			t.Errorf("predefined scale %q invalid: %v", name, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestScaleValidate(t *testing.T) {
	bad := tiny
	bad.ViewSize = 0
	if bad.validate() == nil {
		t.Error("zero view size accepted")
	}
	bad = tiny
	bad.N = 5
	if bad.validate() == nil {
		t.Error("tiny N accepted")
	}
	bad = tiny
	bad.MeasureEvery = 0
	if bad.validate() == nil {
		t.Error("zero MeasureEvery accepted")
	}
}

func TestGrowthCycles(t *testing.T) {
	sc := Scale{N: 10_000, GrowthPerCycle: 100}
	if got := sc.GrowthCycles(); got != 100 {
		t.Errorf("growth cycles = %d want 100", got)
	}
	if got := (Scale{N: 10, GrowthPerCycle: 3}).GrowthCycles(); got != 4 {
		t.Errorf("growth cycles = %d want 4", got)
	}
	if got := (Scale{N: 10}).GrowthCycles(); got != 0 {
		t.Errorf("growth cycles without growth = %d want 0", got)
	}
}

func TestBuildRandom(t *testing.T) {
	cfg := sim.Config{Protocol: core.Newscast, ViewSize: tiny.ViewSize, Seed: 1}
	w := BuildRandom(cfg, tiny.N)
	if w.Size() != tiny.N || w.LiveCount() != tiny.N {
		t.Fatalf("population = %d/%d", w.LiveCount(), w.Size())
	}
	for i := 0; i < tiny.N; i++ {
		v := w.Node(sim.NodeID(i)).View()
		if v.Len() != tiny.ViewSize {
			t.Fatalf("node %d view len = %d want %d", i, v.Len(), tiny.ViewSize)
		}
		if v.Contains(sim.NodeID(i)) {
			t.Fatalf("node %d knows itself", i)
		}
	}
	snap := w.TakeSnapshot()
	if !snap.Graph.Components().Connected() {
		t.Error("random bootstrap disconnected")
	}
}

func TestBuildLattice(t *testing.T) {
	cfg := sim.Config{Protocol: core.Newscast, ViewSize: 8, Seed: 1}
	w := BuildLattice(cfg, 50)
	snap := w.TakeSnapshot()
	// Directed views hold the 4 nearest on each side; the undirected
	// union collapses symmetric links, so every degree is exactly c.
	lo, hi := snap.Graph.MinMaxDegree()
	if lo != 8 || hi != 8 {
		t.Errorf("lattice degrees = [%d,%d] want exactly 8", lo, hi)
	}
	// A ring lattice has a large diameter and high clustering relative to
	// random graphs.
	var diameter int32
	for v := range snap.Graph.NumNodes() {
		for _, d := range snap.Graph.BFS(int32(v)) {
			diameter = max(diameter, d)
		}
	}
	if diameter < 5 {
		t.Errorf("lattice diameter = %d, too small", diameter)
	}
	if c := snap.Graph.Clustering(); c < 0.4 {
		t.Errorf("lattice clustering = %v, too small", c)
	}
	// Check the view of node 0 holds ring neighbours only.
	v := w.Node(0).View()
	for i := 0; i < v.Len(); i++ {
		addr := int(v.At(i).Addr)
		distRight := (addr - 0 + 50) % 50
		distLeft := (0 - addr + 50) % 50
		d := distRight
		if distLeft < d {
			d = distLeft
		}
		if d > 4 {
			t.Errorf("node 0 view contains %d at ring distance %d", addr, d)
		}
	}
}

func TestBuildLatticeOddViewSize(t *testing.T) {
	cfg := sim.Config{Protocol: core.Newscast, ViewSize: 5, Seed: 1}
	w := BuildLattice(cfg, 20)
	for i := 0; i < 20; i++ {
		if got := w.Node(sim.NodeID(i)).View().Len(); got != 5 {
			t.Fatalf("node %d view len = %d want 5", i, got)
		}
	}
}

func TestGrowStepAndRunGrowing(t *testing.T) {
	cfg := sim.Config{Protocol: core.Newscast, ViewSize: tiny.ViewSize, Seed: 2}
	w := BuildGrowingSeed(cfg)
	if w.Size() != 1 {
		t.Fatalf("seed network size = %d", w.Size())
	}
	added := GrowStep(w, 6, tiny.N)
	if added != 6 || w.Size() != 7 {
		t.Fatalf("grow step added %d (size %d)", added, w.Size())
	}
	// Joining nodes know only the oldest node.
	if !w.Node(3).View().Contains(0) || w.Node(3).View().Len() != 1 {
		t.Error("joiner bootstrap wrong")
	}

	calls := 0
	w2 := RunGrowing(cfg, tiny, func(w *sim.Network, cycle int) { calls++ })
	if calls != tiny.Cycles {
		t.Errorf("observe called %d times want %d", calls, tiny.Cycles)
	}
	if w2.Size() != tiny.N {
		t.Errorf("grown size = %d want %d", w2.Size(), tiny.N)
	}
	// Growth must stop at the target even though cycles continue.
	if w2.Cycle() != tiny.Cycles {
		t.Errorf("cycles = %d want %d", w2.Cycle(), tiny.Cycles)
	}
}

func TestComputeBaseline(t *testing.T) {
	base := ComputeBaseline(tiny, 7)
	if base.N != tiny.N || base.ViewSize != tiny.ViewSize {
		t.Errorf("baseline header wrong: %+v", base)
	}
	// Random-view union graph: expected degree c(1 + (N-1-c)/(N-1)),
	// which is ~28.5 for N=150, c=15.
	if base.AvgDegree < 26.5 || base.AvgDegree > 30.5 {
		t.Errorf("baseline avg degree = %v want ~28.5", base.AvgDegree)
	}
	if base.Clustering > 0.3 {
		t.Errorf("baseline clustering = %v implausibly high", base.Clustering)
	}
	if base.PathLen < 1 || base.PathLen > 4 {
		t.Errorf("baseline path length = %v implausible", base.PathLen)
	}
}

func TestMixDistinctAndDeterministic(t *testing.T) {
	seen := map[uint64]bool{}
	for k := 0; k < 1000; k++ {
		v := mix(42, k)
		if seen[v] {
			t.Fatalf("mix collision at k=%d", k)
		}
		seen[v] = true
	}
	if mix(42, 7) != mix(42, 7) {
		t.Error("mix not deterministic")
	}
	if mix(42, 7) == mix(43, 7) {
		t.Error("mix ignores seed")
	}
}

func TestForEachPar(t *testing.T) {
	const n = 100
	hits := make([]int, n)
	forEachPar(n, func(i int) { hits[i]++ })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
	forEachPar(0, func(int) { t.Fatal("fn called for n=0") })
	single := 0
	forEachPar(1, func(int) { single++ })
	if single != 1 {
		t.Error("n=1 did not run exactly once")
	}
}

func TestFindAndAll(t *testing.T) {
	defs := All()
	if len(defs) != 19 {
		t.Fatalf("registry has %d entries want 19", len(defs))
	}
	ids := map[string]bool{}
	for _, d := range defs {
		if d.Run == nil || d.Title == "" {
			t.Errorf("incomplete def %+v", d)
		}
		if ids[d.ID] {
			t.Errorf("duplicate id %q", d.ID)
		}
		ids[d.ID] = true
	}
	// Exactly the live-cluster experiments are marked Live.
	live := map[string]bool{
		"hostile": true, "bootstrap": true, "livechurn": true,
		"livebroadcast": true, "liveaggregate": true, "livegateway": true,
		"partitionheal": true,
	}
	for _, d := range defs {
		if d.Live != live[d.ID] {
			t.Errorf("%s: Live = %v want %v", d.ID, d.Live, live[d.ID])
		}
	}
	if _, ok := Find("figure6"); !ok {
		t.Error("figure6 not found")
	}
	if _, ok := Find("nope"); ok {
		t.Error("phantom experiment found")
	}
}
