package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"peersampling/internal/core"
	"peersampling/internal/scenario"
	"peersampling/internal/sim"
)

const (
	shardedNodes  = 100_000
	dynamicsNodes = 10_000
	warmCycles    = 5
	replayNodes   = 10_000 // the bit-identical-replay side run
	replayCycles  = 5
)

// observeConfig is how the paper-scale experiment drivers observe.
func observeConfig(seed uint64) sim.MetricsConfig {
	return sim.MetricsConfig{PathSources: 24, ClusteringSample: 600, Seed: seed}
}

func simConfig(seed uint64) sim.Config {
	return sim.Config{Protocol: core.Newscast, ViewSize: viewSize, Seed: seed}
}

// simSharded is the sim_sharded workload: one op is one sharded cycle of
// the whole population.
type simSharded struct {
	cfg runConfig
	w   *sim.Network
	buf *spanBuf // nil when untraced
}

func buildSimSharded(cfg runConfig, tr *tracer) (instance, error) {
	w := scenario.BuildRandom(simConfig(cfg.seed), shardedNodes)
	w.RunSharded(warmCycles, cfg.d)
	s := &simSharded{cfg: cfg, w: w}
	if tr != nil {
		s.buf = tr.newBuf()
	}
	return s, nil
}

func (s *simSharded) measure(window time.Duration) measured {
	began := time.Now()
	mem0 := readMem()
	ns, failed, cpu := runSerial(window, func() bool {
		if s.buf == nil {
			s.w.RunCycleSharded(s.cfg.d)
			return true
		}
		id := s.buf.begin(spSimCycle, 0, -1)
		s.w.RunCycleSharded(s.cfg.d)
		s.buf.end(id)
		return true
	})
	return measured{
		endToEnd:       summarizeSerial(ns, failed, cpu, shardedNodes),
		from:           began.Add(warmUp),
		to:             time.Now(),
		mem:            readMem().since(mem0),
		goroutinesPeak: runtime.NumGoroutine(),
	}
}

func (s *simSharded) check() []string {
	bad := checkSimViews(s.w)
	if a, b := replayHash(s.cfg.seed, 1), replayHash(s.cfg.seed, s.cfg.d); a != b {
		bad = append(bad, fmt.Sprintf("replay differs: workers=1 hashes to %016x, workers=%d to %016x", a, s.cfg.d, b))
	}
	return bad
}

// layers adds the simulator probes: the same population at workers=1 and
// sequentially, and the bare core calls a cycle is made of.
func (s *simSharded) layers(m metrics, agg [numSpanNames]spanAgg, _ measured) string {
	n := float64(s.w.Size())
	m["sim.cycle_ms"] = agg[spSimCycle].meanDurUs() / 1e3
	m["sim.cycle_w1_ms"] = medianMs(3, func() { s.w.RunCycleSharded(1) })
	m["sim.seq_cycle_ms"] = medianMs(3, func() { s.w.RunCycle() })
	m["sim.scaling_efficiency"] = m["sim.cycle_w1_ms"] / (float64(s.cfg.d) * m["sim.cycle_ms"])
	m["sim.core_ns_per_exchange"] = coreCallsNs(s.w, s.cfg.seed)
	// Against the sequential cycle, which visits nodes in the same random
	// order as the bare calls; the sharded engine stages its memory
	// accesses and can beat them both.
	m["sim.driver_self_ns_per_exchange"] = m["sim.seq_cycle_ms"]*1e6/n - m["sim.core_ns_per_exchange"]
	before := readMem()
	s.w.RunCycleSharded(s.cfg.d)
	m["sim.allocs_per_cycle"] = float64(readMem().since(before).mallocs)
	return ""
}

func (s *simSharded) close() {}

// medianMs times fn reps times and returns the median in milliseconds.
func medianMs(reps int, fn func()) float64 {
	var ms []float64
	for range reps {
		t0 := time.Now()
		fn()
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms)
}

// coreCallsNs runs one cycle's worth of exchanges over w's own population
// by calling the core state machine directly, in a seeded random order,
// and returns nanoseconds per exchange: what a cycle would cost if the
// simulator's driver were free.
func coreCallsNs(w *sim.Network, seed uint64) float64 {
	order := rand.New(rand.NewPCG(seed, 0x0DE4)).Perm(w.Size())
	var reqBuf, respBuf []core.Descriptor[sim.NodeID]
	began := time.Now()
	for _, id := range order {
		node := w.Node(sim.NodeID(id))
		node.AgeView()
		peer, err := node.SelectPeer()
		if err != nil {
			continue
		}
		var req core.Request[sim.NodeID]
		req, reqBuf = node.MakeRequestInto(reqBuf)
		resp, out, ok := w.Node(peer).HandleRequestInto(req, respBuf)
		respBuf = out
		if ok {
			node.HandleResponse(resp)
		}
	}
	return float64(time.Since(began).Nanoseconds()) / float64(len(order))
}

// simView returns node i's view as addresses, written over buf.
func simView(w *sim.Network, i int, buf []int32) []int32 {
	v := w.Node(sim.NodeID(i)).View()
	buf = buf[:0]
	for k := range v.Len() {
		buf = append(buf, v.At(k).Addr)
	}
	return buf
}

// checkSimViews verifies the view invariants on the whole population,
// that every view is full, and that the overlay is one component.
func checkSimViews(w *sim.Network) []string {
	n := w.Size()
	exists := func(j int32) bool { return j >= 0 && int(j) < n }
	var buf []int32
	for i := range n {
		buf = simView(w, i, buf)
		if err := checkView(int32(i), buf, viewSize, true, exists); err != nil {
			return []string{err.Error()} // one is enough: 1e5 messages help nobody
		}
	}
	if c := components(n, func(i int) []int32 { buf = simView(w, i, buf); return buf }); c != 1 {
		return []string{fmt.Sprintf("overlay has %d components, want 1", c)}
	}
	return nil
}

// replayHash runs the side population for a few sharded cycles at the
// given worker count and hashes every view, hop counts included.
func replayHash(seed uint64, workers int) uint64 {
	w := scenario.BuildRandom(simConfig(seed), replayNodes)
	w.RunSharded(replayCycles, workers)
	h := fnv.New64a()
	var b [8]byte
	for i := range w.Size() {
		v := w.Node(sim.NodeID(i)).View()
		for k := range v.Len() {
			d := v.At(k)
			b = [8]byte{byte(d.Addr), byte(d.Addr >> 8), byte(d.Addr >> 16), byte(d.Addr >> 24),
				byte(d.Hop), byte(d.Hop >> 8), byte(d.Hop >> 16), byte(d.Hop >> 24)}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// paperDynamics is the paper_dynamics workload: one op is a sequential
// cycle followed by an observation of the overlay.
type paperDynamics struct {
	cfg  runConfig
	w    *sim.Network
	buf  *spanBuf // nil when untraced
	last sim.Observation
	bad  []string // observations that failed their check
}

func buildPaperDynamics(cfg runConfig, tr *tracer) (instance, error) {
	p := &paperDynamics{cfg: cfg, w: scenario.BuildRandom(simConfig(cfg.seed), dynamicsNodes)}
	if tr != nil {
		p.buf = tr.newBuf()
	}
	return p, nil
}

func (p *paperDynamics) op() bool {
	if p.buf == nil {
		p.w.RunCycle()
		p.last = p.w.Observe(observeConfig(p.cfg.seed))
	} else {
		root := p.buf.begin(spPaperOp, 0, -1)
		id := p.buf.begin(spSeqCycle, 0, root)
		p.w.RunCycle()
		p.buf.end(id)
		id = p.buf.begin(spObserve, 0, root)
		p.last = p.w.Observe(observeConfig(p.cfg.seed))
		p.buf.end(id)
		p.buf.end(root)
	}
	if err := checkObservation(p.last); err != nil {
		if len(p.bad) < 5 {
			p.bad = append(p.bad, err.Error())
		}
		return false
	}
	return true
}

// checkObservation verifies an observation of a converged Newscast
// overlay: every figure finite, clustering strictly between 0 and 1, an
// average path longer than one hop, one component.
func checkObservation(o sim.Observation) error {
	switch {
	case math.IsNaN(o.Clustering) || math.IsInf(o.Clustering, 0) || o.Clustering <= 0 || o.Clustering >= 1:
		return fmt.Errorf("cycle %d: clustering %v outside (0,1)", o.Cycle, o.Clustering)
	case math.IsNaN(o.PathLen) || math.IsInf(o.PathLen, 0) || o.PathLen <= 1:
		return fmt.Errorf("cycle %d: path length %v not above 1", o.Cycle, o.PathLen)
	case math.IsNaN(o.AvgDegree) || math.IsInf(o.AvgDegree, 0) || o.AvgDegree <= 0:
		return fmt.Errorf("cycle %d: average degree %v", o.Cycle, o.AvgDegree)
	case o.Components != 1:
		return fmt.Errorf("cycle %d: %d components, want 1", o.Cycle, o.Components)
	}
	return nil
}

func (p *paperDynamics) measure(window time.Duration) measured {
	began := time.Now()
	mem0 := readMem()
	ns, failed, cpu := runSerial(window, p.op)
	return measured{
		endToEnd:       summarizeSerial(ns, failed, cpu, 1),
		from:           began.Add(warmUp),
		to:             time.Now(),
		mem:            readMem().since(mem0),
		goroutinesPeak: runtime.NumGoroutine(),
	}
}

func (p *paperDynamics) check() []string {
	return append(checkSimViews(p.w), p.bad...)
}

// layers splits an observation into the graph package's parts, each timed
// on the overlay the window ended with.
func (p *paperDynamics) layers(m metrics, agg [numSpanNames]spanAgg, _ measured) string {
	const reps = 5
	m["sim.seq_cycle_ms"] = agg[spSeqCycle].meanDurUs() / 1e3
	m["graph.observe_ms"] = agg[spObserve].meanDurUs() / 1e3
	snap := p.w.TakeSnapshot()
	m["graph.snapshot_ms"] = medianMs(reps, func() { snap = p.w.TakeSnapshot() })
	g := snap.Graph
	mc := observeConfig(p.cfg.seed)
	rng := rand.New(rand.NewPCG(mc.Seed, 1))
	m["graph.clustering_ms"] = medianMs(reps, func() { g.EstimateClustering(mc.ClusteringSample, rng) })
	m["graph.pathlen_ms"] = medianMs(reps, func() { g.EstimatePathLength(mc.PathSources, rng) })
	m["graph.components_ms"] = medianMs(reps, func() { g.Components() })
	before := readMem()
	p.w.Observe(mc)
	m["graph.allocs_per_observe"] = float64(readMem().since(before).mallocs)
	return ""
}

func (p *paperDynamics) close() {}
