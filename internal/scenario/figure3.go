package scenario

import (
	"fmt"
	"strings"

	"peersampling/internal/core"
	"peersampling/internal/sim"
)

// Figure3Result reproduces the paper's Figure 3: convergence of average
// path length, clustering coefficient and average node degree for all
// eight studied protocols, starting from a structured ring lattice and
// from a random topology. The paper runs 300 cycles and plots the first
// 100; we record the first 100 (scaled by MeasureEvery).
type Figure3Result struct {
	Scale    Scale
	Baseline Baseline
	// Lattice and Random hold one Dynamics per studied protocol.
	Lattice []Dynamics
	Random  []Dynamics
}

// figure3Cycles returns the plotted horizon: the paper shows 100 cycles.
func figure3Cycles(sc Scale) int { return min(sc.Cycles, 100) }

// Render implements Result.
func (r *Figure3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 (N=%d, c=%d, %d cycles shown)\n\n", r.Scale.N, r.Scale.ViewSize, figure3Cycles(r.Scale))
	for _, part := range []struct {
		name string
		dyn  []Dynamics
	}{{"lattice initialisation", r.Lattice}, {"random initialisation", r.Random}} {
		for _, metric := range []string{"pathlen", "clustering", "avgdegree"} {
			b.WriteString(renderDynamics("Figure 3 "+part.name, part.dyn, r.Baseline, metric))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// RunFigure3 reproduces Figure 3 for both initialisation scenarios.
func RunFigure3(sc Scale, seed uint64) *Figure3Result {
	protos := core.StudiedProtocols()
	res := &Figure3Result{
		Scale:    sc,
		Baseline: ComputeBaseline(sc, mix(seed, 998)),
		Lattice:  make([]Dynamics, len(protos)),
		Random:   make([]Dynamics, len(protos)),
	}
	cycles := figure3Cycles(sc)
	// Two builds per protocol: lattice and random.
	forEachPar(2*len(protos), func(job int) {
		pi := job / 2
		cfg := sim.Config{Protocol: protos[pi], ViewSize: sc.ViewSize, Seed: mix(seed, job)}
		build, out := BuildLattice, res.Lattice
		if job%2 == 1 {
			build, out = BuildRandom, res.Random
		}
		obs := collectDynamics(build(cfg, sc.N), cycles, sc.MeasureEvery, metricsConfig(sc, mix(seed, job)))
		out[pi] = Dynamics{Protocol: protos[pi], Observations: obs}
	})
	return res
}
