package scenario

import (
	"fmt"
	"strings"

	"peersampling/internal/core"
	"peersampling/internal/sim"
)

// ChurnRow summarises the steady state of one protocol under continuous
// churn: in every cycle a fixed fraction of the population fails and the
// same number of fresh nodes joins through a random live contact.
type ChurnRow struct {
	Protocol core.Protocol
	// Connected reports whether the live overlay was connected at the end.
	Connected bool
	// OutsideLargest is the share of live nodes outside the largest
	// cluster at the end.
	OutsideLargest float64
	// AvgDeadLinks is the mean number of dead links per live view in
	// steady state (averaged over the last third of the run).
	AvgDeadLinks float64
	// InvisibleFraction is the share of live nodes no other live node
	// knows about (they can never be sampled).
	InvisibleFraction float64
}

// ChurnResult is an extension experiment beyond the paper's static
// failure studies: the paper's Section 10 notes that practical
// deployments must handle continuous dynamism; this measures which design
// points actually do. The churn model replaces ChurnRate of the
// population per cycle, which at 1% approximates the median session times
// observed in deployed peer-to-peer systems relative to a gossip period
// of a few seconds.
type ChurnResult struct {
	Scale     Scale
	ChurnRate float64
	Cycles    int
	Rows      []ChurnRow
}

// Render implements Result.
func (r *ChurnResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Continuous churn (%.1f%% of nodes replaced per cycle, %d cycles, N=%d)\n",
		r.ChurnRate*100, r.Cycles, r.Scale.N)
	tb := newTable("protocol", "connected", "outside largest", "dead links/view", "invisible")
	for _, row := range r.Rows {
		conn := "yes"
		if !row.Connected {
			conn = "NO"
		}
		tb.addRow(row.Protocol.String(), conn, f4(row.OutsideLargest), f3(row.AvgDeadLinks), f4(row.InvisibleFraction))
	}
	b.WriteString(tb.String())
	return b.String()
}

// RunChurn measures steady-state overlay health under continuous churn
// for all studied protocols.
func RunChurn(sc Scale, seed uint64) *ChurnResult {
	const churnRate = 0.01
	cycles := sc.Cycles
	protos := core.StudiedProtocols()
	perCycle := max(1, int(float64(sc.N)*churnRate))
	rows := perProtocol(sc, seed, protos, func(pi int, w *sim.Network) ChurnRow {
		rng := newRand(mix(seed, 0xC4B2+pi))
		deadSum, deadSamples := 0.0, 0
		for cyc := 0; cyc < cycles; cyc++ {
			// Fail perCycle random live nodes.
			live := w.LiveIDs()
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			for _, id := range live[:perCycle] {
				w.Kill(id)
			}
			// The same number of fresh nodes joins via random live contacts.
			live = live[perCycle:]
			for j := 0; j < perCycle; j++ {
				contact := live[rng.IntN(len(live))]
				w.Add([]core.Descriptor[sim.NodeID]{{Addr: contact, Hop: 0}})
			}
			w.RunCycle()
			if cyc >= cycles*2/3 {
				deadSum += float64(w.DeadLinks()) / float64(w.LiveCount())
				deadSamples++
			}
		}
		comp := w.TakeSnapshot().Graph.Components()
		return ChurnRow{
			Protocol:          protos[pi],
			Connected:         comp.Connected(),
			OutsideLargest:    float64(comp.OutsideLargest()) / float64(w.LiveCount()),
			AvgDeadLinks:      deadSum / float64(deadSamples),
			InvisibleFraction: invisibleFraction(w),
		}
	})
	return &ChurnResult{Scale: sc, ChurnRate: churnRate, Cycles: cycles, Rows: rows}
}
