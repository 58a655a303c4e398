package scenario

import (
	"fmt"
	"strings"

	"peersampling/internal/core"
	"peersampling/internal/sim"
)

// Figure7Protocol is the dead-link healing trace of one protocol.
type Figure7Protocol struct {
	Protocol core.Protocol
	// DeadLinks[i] is the number of dead links i cycles after the
	// failure event (index 0 is immediately after the failure).
	DeadLinks []int
	// HalfLife is the number of cycles until dead links first dropped to
	// half their initial count, or -1 if that never happened within the
	// recorded horizon.
	HalfLife int
	// CyclesToClean is the number of cycles until zero dead links, or -1.
	CyclesToClean int
}

// Figure7Result reproduces the paper's Figure 7: removal of dead links
// after a catastrophic failure of half the network at the converged cycle.
type Figure7Result struct {
	Scale       Scale
	FailureAt   int // cycle of the failure event
	Horizon     int // cycles simulated after the failure
	KilledNodes int
	Protocols   []Figure7Protocol
}

// Render implements Result.
func (r *Figure7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 (50%% of nodes fail at cycle %d; overall dead links afterwards)\n", r.FailureAt)
	offsets := []int{0, 10, 20, 40, 70, 100, 150, 200}
	header := []string{"protocol"}
	for _, o := range offsets {
		if o <= r.Horizon {
			header = append(header, fmt.Sprintf("+%d", o))
		}
	}
	header = append(header, "half-life", "clean after")
	tb := newTable(header...)
	for _, pr := range r.Protocols {
		row := []string{pr.Protocol.String()}
		for _, o := range offsets {
			if o <= r.Horizon {
				row = append(row, fmt.Sprintf("%d", pr.DeadLinks[o]))
			}
		}
		hl, cl := "-", "-"
		if pr.HalfLife >= 0 {
			hl = fmt.Sprintf("%d", pr.HalfLife)
		}
		if pr.CyclesToClean >= 0 {
			cl = fmt.Sprintf("%d", pr.CyclesToClean)
		}
		row = append(row, hl, cl)
		tb.addRow(row...)
	}
	b.WriteString(tb.String())
	return b.String()
}

// RunFigure7 reproduces Figure 7: each studied protocol converges from a
// random topology for Cycles cycles, then 50% of the nodes fail at once
// and the simulation continues for another 2/3 Cycles (the paper runs to
// cycle 500 after failing at 300), tracking the total number of dead
// links in live views each cycle.
func RunFigure7(sc Scale, seed uint64) *Figure7Result {
	protos := core.StudiedProtocols()
	horizon := sc.Cycles * 2 / 3
	res := &Figure7Result{
		Scale:     sc,
		FailureAt: sc.Cycles,
		Horizon:   horizon,
	}
	res.Protocols = perProtocol(sc, seed, protos, func(pi int, w *sim.Network) Figure7Protocol {
		w.Run(sc.Cycles)
		killed := w.KillFraction(0.5)
		if pi == 0 {
			res.KilledNodes = len(killed)
		}
		dead := make([]int, 0, horizon+1)
		dead = append(dead, w.DeadLinks())
		for i := 0; i < horizon; i++ {
			w.RunCycle()
			dead = append(dead, w.DeadLinks())
		}
		pr := Figure7Protocol{Protocol: protos[pi], DeadLinks: dead, HalfLife: -1, CyclesToClean: -1}
		for i, v := range dead {
			if pr.HalfLife < 0 && v*2 <= dead[0] {
				pr.HalfLife = i
			}
			if v == 0 {
				pr.CyclesToClean = i
				break
			}
		}
		return pr
	})
	return res
}
