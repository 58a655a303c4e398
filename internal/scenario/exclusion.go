package scenario

import (
	"fmt"
	"strings"

	"peersampling/internal/core"
	"peersampling/internal/sim"
)

// ExclusionResult reproduces the preliminary experiments of Section 4.3
// that ruled out 19 of the 27 protocol combinations:
//
//   - (head,*,*) suffers severe clustering,
//   - (*,tail,*) cannot integrate joining nodes,
//   - (*,*,pull) converges to a star-like topology.
type ExclusionResult struct {
	Scale Scale

	// Head peer selection locks nodes onto their most recent exchange
	// partner: pairs gossip only with each other and the overlay stops
	// evolving — the degenerate "severe clustering" regime. We measure
	// view churn (the average fraction of view entries replaced over a
	// ten-cycle window after convergence): near zero for (head,*,*),
	// substantial for the rand-peer control. A frozen view means getPeer
	// samples a fixed static subset, violating even the weakest
	// requirement on the service (Section 2).
	HeadPeerChurn float64
	RandPeerChurn float64

	// Tail view selection in the growing scenario: fraction of the final
	// population that no live node knows about (zero in-links), versus
	// the head control. Invisible nodes can never be sampled by anyone —
	// the sense in which (*,tail,*) "cannot handle joining nodes at all".
	TailInvisibleFraction float64
	HeadInvisibleFraction float64

	// Pull-only star formation: maximum degree as a fraction of N,
	// versus the pushpull control.
	PullMaxDegreeFraction     float64
	PushPullMaxDegreeFraction float64
}

// Render implements Result.
func (r *ExclusionResult) Render() string {
	var b strings.Builder
	b.WriteString("Section 4.3 exclusion study\n")
	tb := newTable("claim", "excluded variant", "control", "verdict")
	verdict := func(bad, good float64, worseIsHigher bool) string {
		if (worseIsHigher && bad > good) || (!worseIsHigher && bad < good) {
			return "confirmed"
		}
		return "NOT confirmed"
	}
	tb.addRow("(head,*,*) degenerates (frozen pairs)",
		fmt.Sprintf("view churn %.3f", r.HeadPeerChurn),
		fmt.Sprintf("rand peer: %.3f", r.RandPeerChurn),
		verdict(r.HeadPeerChurn, r.RandPeerChurn, false))
	tb.addRow("(*,tail,*) cannot absorb joins",
		fmt.Sprintf("invisible joiners %.3f", r.TailInvisibleFraction),
		fmt.Sprintf("head view: %.3f", r.HeadInvisibleFraction),
		verdict(r.TailInvisibleFraction, r.HeadInvisibleFraction, true))
	tb.addRow("(*,*,pull) forms a star",
		fmt.Sprintf("max degree/N %.3f", r.PullMaxDegreeFraction),
		fmt.Sprintf("pushpull: %.3f", r.PushPullMaxDegreeFraction),
		verdict(r.PullMaxDegreeFraction, r.PushPullMaxDegreeFraction, true))
	b.WriteString(tb.String())
	return b.String()
}

// RunExclusion reproduces the Section 4.3 observations with targeted
// mini-experiments: each excluded variant against a Newscast control.
func RunExclusion(sc Scale, seed uint64) *ExclusionResult {
	res := &ExclusionResult{Scale: sc}

	// Use a reduced population: the pathologies show at any size and two
	// of the variants are quadratically slow to analyse when degenerate.
	n := min(sc.N, 1000)
	cycles := min(sc.Cycles, 100)
	growSc := sc
	growSc.N, growSc.Cycles, growSc.GrowthPerCycle = n, cycles, max(1, n/50)

	cfg := func(p core.Protocol, k int) sim.Config {
		return sim.Config{Protocol: p, ViewSize: sc.ViewSize, Seed: mix(seed, k)}
	}
	converged := func(p core.Protocol, k int) *sim.Network {
		w := BuildRandom(cfg(p, k), n)
		w.Run(cycles)
		return w
	}
	maxDegree := func(p core.Protocol, k int) float64 {
		_, d := converged(p, k).TakeSnapshot().Graph.MinMaxDegree()
		return float64(d) / float64(n)
	}

	pairs := []struct {
		excluded             core.Protocol
		measure              func(p core.Protocol, k int) float64
		excludedOut, ctrlOut *float64
	}{
		// (head,*,*) frozen-pair degeneration, measured as churn.
		{core.Protocol{PeerSel: core.PeerHead, ViewSel: core.ViewHead, Prop: core.PushPull},
			func(p core.Protocol, k int) float64 { return viewChurn(converged(p, k), 10) },
			&res.HeadPeerChurn, &res.RandPeerChurn},
		// (*,tail,*) joining nodes in the growing scenario.
		{core.Protocol{PeerSel: core.PeerRand, ViewSel: core.ViewTail, Prop: core.PushPull},
			func(p core.Protocol, k int) float64 { return invisibleFraction(RunGrowing(cfg(p, k), growSc, nil)) },
			&res.TailInvisibleFraction, &res.HeadInvisibleFraction},
		// (*,*,pull) star formation.
		{core.Protocol{PeerSel: core.PeerRand, ViewSel: core.ViewHead, Prop: core.Pull},
			maxDegree,
			&res.PullMaxDegreeFraction, &res.PushPullMaxDegreeFraction},
	}
	// Job 2i runs pair i's excluded variant, job 2i+1 its control; job j
	// draws from mix(seed, j+1).
	forEachPar(2*len(pairs), func(job int) {
		pair := pairs[job/2]
		proto, out := pair.excluded, pair.excludedOut
		if job%2 == 1 {
			proto, out = core.Newscast, pair.ctrlOut
		}
		*out = pair.measure(proto, job+1)
	})
	return res
}

// viewChurn runs `window` extra cycles and returns the average fraction
// of view entries per live node that were replaced during the window. A
// healthy gossip overlay keeps rotating its views; a frozen overlay (the
// (head,*,*) pathology) scores near zero.
func viewChurn(w *sim.Network, window int) float64 {
	before := make(map[sim.NodeID]map[sim.NodeID]bool)
	for _, id := range w.LiveIDs() {
		v := w.Node(id).View()
		set := make(map[sim.NodeID]bool, v.Len())
		for i := 0; i < v.Len(); i++ {
			set[v.At(i).Addr] = true
		}
		before[id] = set
	}
	w.Run(window)
	var sum float64
	var counted int
	for id, old := range before {
		if len(old) == 0 || !w.Alive(id) {
			continue
		}
		v := w.Node(id).View()
		kept := 0
		for i := 0; i < v.Len(); i++ {
			if old[v.At(i).Addr] {
				kept++
			}
		}
		sum += 1 - float64(kept)/float64(len(old))
		counted++
	}
	if counted == 0 {
		return 0
	}
	return sum / float64(counted)
}

// invisibleFraction returns the share of live nodes that appear in no
// other live node's view (zero in-links): nodes the sampling service can
// never return to anyone.
func invisibleFraction(w *sim.Network) float64 {
	known := make(map[sim.NodeID]bool)
	live := w.LiveIDs()
	for _, id := range live {
		v := w.Node(id).View()
		for i := 0; i < v.Len(); i++ {
			if addr := v.At(i).Addr; int(addr) < w.Size() && w.Alive(addr) {
				known[addr] = true
			}
		}
	}
	invisible := 0
	for _, id := range live {
		if !known[id] {
			invisible++
		}
	}
	return float64(invisible) / float64(len(live))
}
