package scenario

import (
	"fmt"
	"strings"

	"peersampling/internal/core"
	"peersampling/internal/graph"
	"peersampling/internal/sim"
)

// Figure6Point is the averaged damage at one removal fraction.
type Figure6Point struct {
	RemovedPercent int
	// AvgOutsideLargest is the paper's y axis: the average number of
	// surviving nodes left outside the largest connected cluster.
	AvgOutsideLargest float64
	// PartitionedRuns counts repetitions in which the survivors were
	// partitioned at all.
	PartitionedRuns int
}

// Figure6Protocol holds the sweep of one protocol.
type Figure6Protocol struct {
	Protocol core.Protocol
	Points   []Figure6Point
	// MinPartitionPercent is the smallest removal percentage at which any
	// repetition partitioned (0 if none did). The paper observed no
	// partitioning below 69% removal.
	MinPartitionPercent int
}

// Figure6Result reproduces the paper's Figure 6: connectivity of the
// converged overlay under increasing random node removal.
type Figure6Result struct {
	Scale     Scale
	Percents  []int
	Protocols []Figure6Protocol
}

// Render implements Result.
func (r *Figure6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 (converged overlays at cycle %d, N=%d; avg nodes outside largest cluster, %d repetitions)\n",
		r.Scale.Cycles, r.Scale.N, r.Scale.Reps)
	header := []string{"protocol"}
	for _, p := range r.Percents {
		header = append(header, fmt.Sprintf("%d%%", p))
	}
	header = append(header, "first partition")
	tb := newTable(header...)
	for _, pr := range r.Protocols {
		row := []string{pr.Protocol.String()}
		for _, pt := range pr.Points {
			row = append(row, f2(pt.AvgOutsideLargest))
		}
		if pr.MinPartitionPercent > 0 {
			row = append(row, fmt.Sprintf("%d%%", pr.MinPartitionPercent))
		} else {
			row = append(row, "never")
		}
		tb.addRow(row...)
	}
	b.WriteString(tb.String())
	return b.String()
}

// figure6Percents returns the removal percentages of the sweep (the
// paper's x axis runs from 65% to 95%).
func figure6Percents() []int {
	out := make([]int, 0, 7)
	for p := 65; p <= 95; p += 5 {
		out = append(out, p)
	}
	return out
}

// RunFigure6 reproduces Figure 6: converge each studied protocol from a
// random topology, then repeatedly remove random fractions of nodes and
// measure how many survivors fall outside the largest connected cluster.
// The reverse-incremental union-find sweep makes each repetition linear in
// the graph size.
func RunFigure6(sc Scale, seed uint64) *Figure6Result {
	protos := core.StudiedProtocols()
	return &Figure6Result{
		Scale:    sc,
		Percents: figure6Percents(),
		Protocols: perProtocol(sc, seed, protos, func(pi int, w *sim.Network) Figure6Protocol {
			w.Run(sc.Cycles)
			points := removalProfile(w.TakeSnapshot().Graph, sc.Reps, seed, pi*1000)
			return Figure6Protocol{Protocol: protos[pi], Points: points, MinPartitionPercent: firstPartition(points)}
		}),
	}
}

// removalProfile is one line of Figure 6: reps times it removes random
// node sets of every figure6Percents share from g, drawing repetition rep
// from mix(seed, salt+rep), and averages the damage per share.
func removalProfile(g *graph.Graph, reps int, seed uint64, salt int) []Figure6Point {
	percents := figure6Percents()
	checkpoints := make([]int, len(percents))
	points := make([]Figure6Point, len(percents))
	for i, p := range percents {
		checkpoints[i] = g.NumNodes() * p / 100
		points[i].RemovedPercent = p
	}
	for rep := 0; rep < reps; rep++ {
		for i, pt := range graph.RemovalSweep(g, checkpoints, newRand(mix(seed, salt+rep))) {
			points[i].AvgOutsideLargest += float64(pt.OutsideLargest)
			if pt.Components > 1 {
				points[i].PartitionedRuns++
			}
		}
	}
	for i := range points {
		points[i].AvgOutsideLargest /= float64(reps)
	}
	return points
}

// firstPartition returns the smallest removal percentage at which any
// repetition partitioned the survivors, or 0 if none did.
func firstPartition(points []Figure6Point) int {
	for _, pt := range points {
		if pt.PartitionedRuns > 0 {
			return pt.RemovedPercent
		}
	}
	return 0
}
