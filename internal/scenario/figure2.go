package scenario

import (
	"fmt"
	"strings"
)

// Figure2Result reproduces the paper's Figure 2: the dynamics of the
// clustering coefficient, average node degree and average path length in
// the growing overlay scenario, for the six protocols that remain stable
// there, against the uniform-random baseline.
type Figure2Result struct {
	Scale    Scale
	Baseline Baseline
	Dynamics []Dynamics
	// Connected records whether the plotted run of each protocol ended
	// connected (the (*,rand,push) lines require retrying seeds, as the
	// paper plots a non-partitioned run).
	Connected []bool
}

// Render implements Result.
func (r *Figure2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 (growing scenario, N=%d, c=%d, %d cycles; growth ends at cycle %d)\n\n",
		r.Scale.N, r.Scale.ViewSize, r.Scale.Cycles, r.Scale.GrowthCycles())
	for _, metric := range []string{"clustering", "avgdegree", "pathlen"} {
		b.WriteString(renderDynamics("Figure 2", r.Dynamics, r.Baseline, metric))
		b.WriteByte('\n')
	}
	for i, d := range r.Dynamics {
		if !r.Connected[i] {
			fmt.Fprintf(&b, "note: no connected run found for %s within the attempt budget\n", d.Protocol)
		}
	}
	return b.String()
}

// RunFigure2 reproduces Figure 2. Push-only protocols are retried with
// fresh seeds until a non-partitioned run is found (the paper plots such a
// run); pushpull protocols use the first run, which the paper reports is
// always connected.
func RunFigure2(sc Scale, seed uint64) *Figure2Result {
	protos := figure2Protocols()
	res := &Figure2Result{
		Scale:     sc,
		Baseline:  ComputeBaseline(sc, mix(seed, 999)),
		Dynamics:  make([]Dynamics, len(protos)),
		Connected: make([]bool, len(protos)),
	}
	const maxAttempts = 10
	forEachPar(len(protos), func(i int) {
		obs, connected := connectedGrowingRun(protos[i], sc, mix(seed, i), maxAttempts)
		res.Dynamics[i] = Dynamics{Protocol: protos[i], Observations: obs}
		res.Connected[i] = connected
	})
	return res
}
