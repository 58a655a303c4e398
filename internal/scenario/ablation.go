package scenario

import (
	"fmt"
	"strings"

	"peersampling/internal/core"
	"peersampling/internal/sim"
)

// AblationRow measures Newscast at one view size.
type AblationRow struct {
	ViewSize int
	// Clustering and PathLen of the converged overlay.
	Clustering float64
	PathLen    float64
	// HealHalfLife is the number of cycles for dead links to halve after
	// a 50% failure (-1 if it never halved within the horizon).
	HealHalfLife int
	// PartitionAt is the smallest removal percentage (65..95, step 5) at
	// which any removal repetition partitioned the survivors, 0 = never.
	PartitionAt int
	// Connected reports whether the converged overlay itself was
	// connected (small c can fragment head view selection).
	Connected bool
}

// AblationResult sweeps the view size c — the one free parameter of every
// protocol in the paper (which fixes c = 30 throughout) — and reports how
// overlay quality, robustness and healing speed depend on it. This is the
// ablation DESIGN.md calls out for the c = 30 design choice.
type AblationResult struct {
	Scale    Scale
	Protocol core.Protocol
	Rows     []AblationRow
}

// Render implements Result.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "View size ablation for %s (N=%d)\n", r.Protocol, r.Scale.N)
	tb := newTable("c", "connected", "clustering", "path length", "heal half-life", "first partition")
	for _, row := range r.Rows {
		conn := "yes"
		if !row.Connected {
			conn = "NO"
		}
		hl := "-"
		if row.HealHalfLife >= 0 {
			hl = fmt.Sprintf("%d", row.HealHalfLife)
		}
		pa := "never"
		if row.PartitionAt > 0 {
			pa = fmt.Sprintf("%d%%", row.PartitionAt)
		}
		tb.addRow(fmt.Sprintf("%d", row.ViewSize), conn, f4(row.Clustering), f3(row.PathLen), hl, pa)
	}
	b.WriteString(tb.String())
	return b.String()
}

// ablationViewSizes returns the sweep points, scaled never to exceed N/8.
func ablationViewSizes(sc Scale) []int {
	candidates := []int{10, 20, 30, 40, 60}
	out := make([]int, 0, len(candidates))
	for _, c := range candidates {
		if c <= sc.N/8 {
			out = append(out, c)
		}
	}
	return out
}

// RunAblation sweeps the view size for Newscast, measuring converged
// overlay quality, healing speed after a 50% failure, and removal
// robustness.
func RunAblation(sc Scale, seed uint64) *AblationResult {
	sizes := ablationViewSizes(sc)
	res := &AblationResult{Scale: sc, Protocol: core.Newscast, Rows: make([]AblationRow, len(sizes))}
	forEachPar(len(sizes), func(i int) {
		c := sizes[i]
		cfg := sim.Config{Protocol: core.Newscast, ViewSize: c, Seed: mix(seed, i)}
		w := BuildRandom(cfg, sc.N)
		w.Run(sc.Cycles)

		snap := w.TakeSnapshot()
		rng := newRand(mix(seed, 100+i))
		row := AblationRow{
			ViewSize:   c,
			Clustering: snap.Graph.EstimateClustering(sc.ClusteringSample, rng),
			Connected:  snap.Graph.Components().Connected(),
			// Removal robustness on the converged overlay.
			PartitionAt: firstPartition(removalProfile(snap.Graph, sc.Reps, seed, 1000+i*100)),
		}
		row.PathLen, _ = snap.Graph.EstimatePathLength(sc.PathSources, rng)

		// Healing speed after a 50% failure.
		w.KillFraction(0.5)
		initial := w.DeadLinks()
		row.HealHalfLife = -1
		for cyc := 0; cyc <= sc.Cycles/3; cyc++ {
			if w.DeadLinks()*2 <= initial {
				row.HealHalfLife = cyc
				break
			}
			w.RunCycle()
		}
		res.Rows[i] = row
	})
	return res
}
