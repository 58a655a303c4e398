package scenario

import (
	"math/rand/v2"
	"runtime"
	"sync"

	"peersampling/internal/core"
	"peersampling/internal/sim"
)

// newRand returns a deterministic RNG for the given derived seed.
func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x5A11AD))
}

// Result is an experiment outcome, named by the Def that produced it.
// Every driver returns one.
type Result interface {
	// Render returns a human-readable text table shaped like the paper's.
	Render() string
}

// Def names one registered experiment.
type Def struct {
	ID    string
	Title string
	// Live marks experiments that boot a live cluster (real sockets, real
	// time, possibly real processes); the rest are seeded cycle
	// simulations that ignore the LiveEnv.
	Live bool
	// Run executes the experiment. The environment selects a live
	// experiment's fleet driver and optionally a collector observing
	// every member. The error reports an invalid Scale, or a live
	// cluster's real failure modes (a missing psnode binary is not a
	// panic-grade programmer error).
	Run func(sc Scale, seed uint64, env LiveEnv) (Result, error)
}

// simDef registers a seeded cycle simulation. It validates the Scale, so
// the drivers themselves assume a valid one.
func simDef[R Result](id, title string, run func(Scale, uint64) R) Def {
	return Def{ID: id, Title: title, Run: func(sc Scale, seed uint64, _ LiveEnv) (Result, error) {
		if err := sc.validate(); err != nil {
			return nil, err
		}
		return run(sc, seed), nil
	}}
}

// liveDef registers a live-cluster experiment.
func liveDef[R Result](id, title string, run func(Scale, uint64, LiveEnv) (R, error)) Def {
	return Def{ID: id, Title: title, Live: true, Run: func(sc Scale, seed uint64, env LiveEnv) (Result, error) {
		r, err := run(sc, seed, env)
		if err != nil {
			return nil, err // not a Result holding a nil *R
		}
		return r, nil
	}}
}

// All returns the full experiment registry in paper order.
func All() []Def {
	return []Def{
		simDef("table1", "Table 1: partitioning in the growing overlay scenario", RunTable1),
		simDef("figure2", "Figure 2: dynamics of graph properties, growing scenario", RunFigure2),
		simDef("figure3", "Figure 3: dynamics from lattice and random initialisation", RunFigure3),
		simDef("figure4", "Figure 4: degree distributions from random initialisation", RunFigure4),
		simDef("table2", "Table 2: dynamics of individual node degrees", RunTable2),
		simDef("figure5", "Figure 5: autocorrelation of node degree over time", RunFigure5),
		simDef("figure6", "Figure 6: connectivity after catastrophic node removal", RunFigure6),
		simDef("figure7", "Figure 7: self-healing after 50% node failure", RunFigure7),
		simDef("exclusion", "Section 4.3: why (head,*,*), (*,tail,*), (*,*,pull) are excluded", RunExclusion),
		simDef("uniformity", "Sampling quality: getPeer() versus independent uniform sampling", RunUniformity),
		simDef("churn", "Extension: steady-state behaviour under continuous churn", RunChurn),
		liveDef("bootstrap", "Extension: live cluster bootstrap convergence over real sockets", RunLiveBootstrap),
		liveDef("hostile", "Extension: live cluster under connection flood and slowloris", RunHostile),
		liveDef("livechurn", "Extension: fleet churn — kill and respawn real nodes each round", RunLiveChurn),
		liveDef("livebroadcast", "Extension: epidemic rumor spread over a live fleet under a kill wave", RunLiveBroadcast),
		liveDef("liveaggregate", "Extension: live push-pull averaging — variance decay and size estimation", RunLiveAggregate),
		liveDef("livegateway", "Extension: gateway sampling API under ramping load and a kill wave", RunLiveGateway),
		liveDef("partitionheal", "Extension: partition and heal a live fleet from a declarative fault plan", RunLivePartition),
		simDef("ablation", "Ablation: overlay quality and robustness versus view size c", RunAblation),
	}
}

// Find returns the experiment definition with the given ID.
func Find(id string) (Def, bool) {
	for _, d := range All() {
		if d.ID == id {
			return d, true
		}
	}
	return Def{}, false
}

// table1Protocols are the four push protocols of the paper's Table 1 (the
// ones for which partitioning was observed in the growing scenario).
func table1Protocols() []core.Protocol {
	return []core.Protocol{
		{PeerSel: core.PeerRand, ViewSel: core.ViewHead, Prop: core.Push},
		{PeerSel: core.PeerRand, ViewSel: core.ViewRand, Prop: core.Push},
		{PeerSel: core.PeerTail, ViewSel: core.ViewHead, Prop: core.Push},
		{PeerSel: core.PeerTail, ViewSel: core.ViewRand, Prop: core.Push},
	}
}

// figure2Protocols are the six protocols plotted in Figure 2: the four
// pushpull variants plus non-partitioned runs of the two (*,rand,push)
// variants. (rand,head,push) and (tail,head,push) are omitted as unstable,
// per the paper.
func figure2Protocols() []core.Protocol {
	return []core.Protocol{
		{PeerSel: core.PeerRand, ViewSel: core.ViewRand, Prop: core.Push},
		{PeerSel: core.PeerTail, ViewSel: core.ViewRand, Prop: core.Push},
		{PeerSel: core.PeerRand, ViewSel: core.ViewRand, Prop: core.PushPull},
		{PeerSel: core.PeerTail, ViewSel: core.ViewRand, Prop: core.PushPull},
		{PeerSel: core.PeerRand, ViewSel: core.ViewHead, Prop: core.PushPull},
		{PeerSel: core.PeerTail, ViewSel: core.ViewHead, Prop: core.PushPull},
	}
}

// figure5Protocols are the four rand-peer-selection protocols plotted in
// Figure 5 (the (tail,*,*) variants are omitted for clarity, as in the
// paper).
func figure5Protocols() []core.Protocol {
	return []core.Protocol{
		{PeerSel: core.PeerRand, ViewSel: core.ViewRand, Prop: core.Push},
		{PeerSel: core.PeerRand, ViewSel: core.ViewRand, Prop: core.PushPull},
		{PeerSel: core.PeerRand, ViewSel: core.ViewHead, Prop: core.Push},
		{PeerSel: core.PeerRand, ViewSel: core.ViewHead, Prop: core.PushPull},
	}
}

// metricsConfig derives the estimator settings from the scale.
func metricsConfig(sc Scale, seed uint64) sim.MetricsConfig {
	return sim.MetricsConfig{
		PathSources:      sc.PathSources,
		ClusteringSample: sc.ClusteringSample,
		Seed:             seed,
	}
}

// forEachPar runs fn(0..n-1) on up to GOMAXPROCS goroutines and waits for
// all of them. Each index must write only its own result slot, which keeps
// parallel experiment repetitions deterministic.
func forEachPar(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// perProtocol builds the paper's random start (Section 5.3) for every
// protocol — N nodes, view size c, seeded mix(seed, pi) — and runs fn on
// each in parallel, returning the results in protocol order.
func perProtocol[T any](sc Scale, seed uint64, protos []core.Protocol, fn func(pi int, w *sim.Network) T) []T {
	out := make([]T, len(protos))
	forEachPar(len(protos), func(pi int) {
		cfg := sim.Config{Protocol: protos[pi], ViewSize: sc.ViewSize, Seed: mix(seed, pi)}
		out[pi] = fn(pi, BuildRandom(cfg, sc.N))
	})
	return out
}

// mix folds a small integer into a seed, giving unrelated deterministic
// RNG streams for repetitions and protocol variants.
func mix(seed uint64, k int) uint64 {
	x := seed + 0x9E3779B97F4A7C15*uint64(k+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
