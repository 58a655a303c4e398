package scenario

import (
	"fmt"
	"strings"

	"peersampling/internal/core"
	"peersampling/internal/sim"
	"peersampling/internal/stats"
)

// DegreeSnapshot is the degree distribution of the overlay at one cycle.
type DegreeSnapshot struct {
	Cycle int
	Table stats.FreqTable
}

// Figure4Result reproduces the paper's Figure 4: degree distributions of
// all eight studied protocols at exponentially spaced cycles (0, 3, 30,
// 300), starting from a random topology. The paper plots them on log-log
// axes; the renderer summarises each distribution's location and tail.
type Figure4Result struct {
	Scale     Scale
	Cycles    []int
	Protocols []core.Protocol
	// Snapshots[i][j] is the distribution of protocol i at Cycles[j].
	Snapshots [][]DegreeSnapshot
}

// Render implements Result.
func (r *Figure4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 (random initialisation, N=%d, c=%d; degree distributions)\n", r.Scale.N, r.Scale.ViewSize)
	tb := newTable("protocol", "cycle", "min", "median", "mean", "max", "tail>2c")
	for i, proto := range r.Protocols {
		for _, snap := range r.Snapshots[i] {
			vals := make([]float64, 0, snap.Table.Total())
			for k, v := range snap.Table.Values {
				for n := 0; n < snap.Table.Counts[k]; n++ {
					vals = append(vals, float64(v))
				}
			}
			sum := stats.Summarize(vals)
			tb.addRow(proto.String(),
				fmt.Sprintf("%d", snap.Cycle),
				fmt.Sprintf("%.0f", sum.Min),
				fmt.Sprintf("%.0f", stats.Quantile(vals, 0.5)),
				f2(sum.Mean),
				fmt.Sprintf("%.0f", sum.Max),
				f4(snap.Table.TailWeight(2*r.Scale.ViewSize)))
		}
	}
	b.WriteString(tb.String())
	return b.String()
}

// figure4Cycles returns the snapshot cycles: the paper's 0, 3, 30, 300,
// clipped to the configured horizon.
func figure4Cycles(sc Scale) []int {
	out := []int{0}
	for _, c := range []int{3, 30, 300} {
		if c <= sc.Cycles {
			out = append(out, c)
		}
	}
	if last := out[len(out)-1]; last != sc.Cycles {
		out = append(out, sc.Cycles)
	}
	return out
}

// RunFigure4 reproduces Figure 4.
func RunFigure4(sc Scale, seed uint64) *Figure4Result {
	protos := core.StudiedProtocols()
	cycles := figure4Cycles(sc)
	return &Figure4Result{
		Scale:     sc,
		Cycles:    cycles,
		Protocols: protos,
		Snapshots: perProtocol(sc, seed, protos, func(_ int, w *sim.Network) []DegreeSnapshot {
			snaps := make([]DegreeSnapshot, 0, len(cycles))
			for _, target := range cycles {
				w.Run(target - w.Cycle())
				snaps = append(snaps, DegreeSnapshot{
					Cycle: target,
					Table: stats.NewFreqTable(degreeList(w)),
				})
			}
			return snaps
		}),
	}
}

// degreeList returns the degrees of all live nodes.
func degreeList(w *sim.Network) []int {
	snap := w.TakeSnapshot()
	out := make([]int, 0, len(snap.IDs))
	for _, id := range snap.IDs {
		d, _ := snap.DegreeOf(id)
		out = append(out, d)
	}
	return out
}
