package scenario

import (
	"fmt"
	"math"

	"peersampling/internal/core"
	"peersampling/internal/sim"
	"peersampling/internal/stats"
)

// degreeTrace runs a random-initialisation experiment tracing the degree
// of `traced` fixed random nodes over `cycles` cycles. It returns one time
// series per traced node (cycles 1..cycles) plus the average degree over
// all nodes at the final cycle (the paper's D_K).
func degreeTrace(proto core.Protocol, sc Scale, seed uint64, traced, cycles int) (series [][]float64, finalAvg float64) {
	cfg := sim.Config{Protocol: proto, ViewSize: sc.ViewSize, Seed: mix(seed, 0x7AB1E)}
	w := BuildRandom(cfg, sc.N)

	// Fixed random sample of live nodes to trace. IDs are 0..N-1 here, so
	// sampling IDs is sampling nodes.
	traced = min(traced, sc.N)
	ids := pickIDs(sc.N, traced, mix(seed, 0x5EED))

	series = make([][]float64, traced)
	for i := range series {
		series[i] = make([]float64, 0, cycles)
	}
	var lastAvg float64
	for cyc := 1; cyc <= cycles; cyc++ {
		w.RunCycle()
		snap := w.TakeSnapshot()
		for i, id := range ids {
			d, _ := snap.DegreeOf(id)
			series[i] = append(series[i], float64(d))
		}
		if cyc == cycles {
			lastAvg = snap.Graph.AverageDegree()
		}
	}
	return series, lastAvg
}

// pickIDs returns k distinct IDs from 0..n-1, deterministically from seed.
func pickIDs(n, k int, seed uint64) []sim.NodeID {
	rng := newRand(seed)
	perm := rng.Perm(n)
	out := make([]sim.NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = sim.NodeID(perm[i])
	}
	return out
}

// Table2Row mirrors one row of the paper's Table 2.
type Table2Row struct {
	Protocol core.Protocol
	// DK is the average node degree over the whole overlay at the final
	// cycle K.
	DK float64
	// MeanOfMeans is the average over traced nodes of their time-averaged
	// degree (the paper's d bar).
	MeanOfMeans float64
	// StdOfMeans is the empirical standard deviation of the traced nodes'
	// time-averaged degrees (the paper's sqrt(sigma)).
	StdOfMeans float64
}

// Table2Result reproduces the paper's Table 2.
type Table2Result struct {
	Scale  Scale
	Traced int
	Rows   []Table2Row
}

// Render implements Result.
func (t *Table2Result) Render() string {
	tb := newTable("protocol", "D_K", "dbar", "sqrt(sigma)")
	for _, r := range t.Rows {
		tb.addRow(r.Protocol.String(), f3(r.DK), f3(r.MeanOfMeans), f3(r.StdOfMeans))
	}
	return fmt.Sprintf("Table 2 (random initialisation, N=%d, c=%d, K=%d cycles, %d traced nodes)\n%s",
		t.Scale.N, t.Scale.ViewSize, t.Scale.Cycles, t.Traced, tb.String())
}

// RunTable2 reproduces Table 2: statistics of the degree dynamics of
// individual nodes for all eight studied protocols.
func RunTable2(sc Scale, seed uint64) *Table2Result {
	protos := core.StudiedProtocols()
	res := &Table2Result{Scale: sc, Traced: sc.TracedNodes, Rows: make([]Table2Row, len(protos))}
	forEachPar(len(protos), func(pi int) {
		series, finalAvg := degreeTrace(protos[pi], sc, mix(seed, pi), sc.TracedNodes, sc.Cycles)
		means := make([]float64, len(series))
		for i, s := range series {
			means[i] = stats.Mean(s)
		}
		res.Rows[pi] = Table2Row{
			Protocol:    protos[pi],
			DK:          finalAvg,
			MeanOfMeans: stats.Mean(means),
			StdOfMeans:  math.Sqrt(stats.Variance(means)),
		}
	})
	return res
}
