package scenario

import (
	"fmt"

	"peersampling/internal/core"
	"peersampling/internal/graph"
	"peersampling/internal/sim"
)

// Table1Row summarises the partitioning behaviour of one protocol in the
// growing overlay scenario, mirroring one row of the paper's Table 1.
// Cluster statistics are averaged over the partitioned runs only, matching
// the paper (its (tail,rand,push) row reports exactly 2.00 clusters from a
// single partitioned run out of 100).
type Table1Row struct {
	Protocol        core.Protocol
	Runs            int
	PartitionedRuns int
	AvgClusters     float64 // over partitioned runs
	AvgLargest      float64 // over partitioned runs
}

// PartitionedPercent returns the share of partitioned runs in percent.
func (r Table1Row) PartitionedPercent() float64 {
	return 100 * float64(r.PartitionedRuns) / float64(r.Runs)
}

// Table1Result is the reproduction of the paper's Table 1.
type Table1Result struct {
	Scale Scale
	Rows  []Table1Row
}

// Render implements Result.
func (t *Table1Result) Render() string {
	tb := newTable("protocol", "partitioned runs", "avg clusters", "avg largest cluster")
	for _, r := range t.Rows {
		avgC, avgL := "-", "-"
		if r.PartitionedRuns > 0 {
			avgC, avgL = f2(r.AvgClusters), f2(r.AvgLargest)
		}
		tb.addRow(r.Protocol.String(),
			fmt.Sprintf("%.0f%% (%d/%d)", r.PartitionedPercent(), r.PartitionedRuns, r.Runs),
			avgC, avgL)
	}
	return fmt.Sprintf("Table 1 (growing scenario, N=%d, c=%d, cycle %d, %d runs)\n%s",
		t.Scale.N, t.Scale.ViewSize, t.Scale.Cycles, t.Scale.Reps, tb.String())
}

// RunTable1 reproduces Table 1: for each push protocol, run the growing
// scenario Reps times and report how often the overlay is partitioned at
// the final cycle, with cluster statistics over the partitioned runs.
func RunTable1(sc Scale, seed uint64) *Table1Result {
	protos := table1Protocols()
	res := &Table1Result{Scale: sc, Rows: make([]Table1Row, len(protos))}

	for pi, proto := range protos {
		comps := make([]graph.ComponentStats, sc.Reps)
		forEachPar(sc.Reps, func(rep int) {
			cfg := sim.Config{Protocol: proto, ViewSize: sc.ViewSize, Seed: mix(seed, pi*10_000+rep)}
			comps[rep] = RunGrowing(cfg, sc, nil).TakeSnapshot().Graph.Components()
		})
		row := Table1Row{Protocol: proto, Runs: sc.Reps}
		for _, c := range comps {
			if !c.Connected() {
				row.PartitionedRuns++
				row.AvgClusters += float64(c.Count)
				row.AvgLargest += float64(c.Largest)
			}
		}
		if row.PartitionedRuns > 0 {
			row.AvgClusters /= float64(row.PartitionedRuns)
			row.AvgLargest /= float64(row.PartitionedRuns)
		}
		res.Rows[pi] = row
	}
	return res
}
