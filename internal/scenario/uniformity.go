package scenario

import (
	"fmt"
	"strings"

	"peersampling/internal/core"
	"peersampling/internal/sim"
	"peersampling/internal/stats"
)

// UniformityRow quantifies how far one protocol's getPeer() samples are
// from independent uniform sampling — the service-level form of the
// paper's headline claim ("none of them leads to uniform sampling").
type UniformityRow struct {
	Protocol core.Protocol
	// ChiSquare is Pearson's statistic of the sample counts against
	// uniform, normalised by degrees of freedom (~1 for a truly uniform
	// sampler, larger = more biased).
	ChiSquare float64
	// TotalVariation is the distance between the empirical sample
	// distribution and uniform (0 = identical).
	TotalVariation float64
	// NormalizedEntropy is 1 for uniform sampling, lower when the
	// service favours some nodes.
	NormalizedEntropy float64
	// MaxOverMean is the most-sampled node's frequency relative to the
	// mean frequency — the "communication hot spot" factor.
	MaxOverMean float64
}

// UniformityResult is the sampling-quality experiment: every node draws
// getPeer() samples while the overlay keeps gossiping, and the pooled
// sample distribution over targets is compared with uniform. A control
// row drawn from a true uniform sampler with the same sample budget
// calibrates the statistics.
type UniformityResult struct {
	Scale          Scale
	SamplesPerNode int
	Cycles         int
	Control        UniformityRow // ideal uniform sampler with the same budget
	Rows           []UniformityRow
}

// Render implements Result.
func (r *UniformityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sampling quality of getPeer() (N=%d, %d samples/node over %d cycles)\n",
		r.Scale.N, r.SamplesPerNode*r.Cycles, r.Cycles)
	tb := newTable("protocol", "chi2/df", "total variation", "norm entropy", "hotspot factor")
	add := func(name string, row UniformityRow) {
		tb.addRow(name, f2(row.ChiSquare), f4(row.TotalVariation), f4(row.NormalizedEntropy), f2(row.MaxOverMean))
	}
	add("uniform control", r.Control)
	for _, row := range r.Rows {
		add(row.Protocol.String(), row)
	}
	b.WriteString(tb.String())
	return b.String()
}

// RunUniformity measures getPeer() sampling quality for all studied
// protocols. The samples interleave with protocol cycles (one batch per
// cycle per node), so temporal view dynamics are reflected, exactly as an
// application calling getPeer() periodically would see them.
func RunUniformity(sc Scale, seed uint64) *UniformityResult {
	const samplesPerNodePerCycle = 2
	cycles := max(10, sc.Cycles/3)
	protos := core.StudiedProtocols()
	res := &UniformityResult{
		Scale:          sc,
		SamplesPerNode: samplesPerNodePerCycle,
		Cycles:         cycles,
	}

	// Control: a true uniform sampler with the same total budget.
	ctrlRng := newRand(mix(seed, 0xC7A1))
	ctrlCounts := make([]int, sc.N)
	for i := 0; i < sc.N*cycles*samplesPerNodePerCycle; i++ {
		ctrlCounts[ctrlRng.IntN(sc.N)]++
	}
	res.Control = uniformityRow(core.Protocol{}, ctrlCounts)

	res.Rows = perProtocol(sc, seed, protos, func(pi int, w *sim.Network) UniformityRow {
		w.Run(sc.Cycles) // converge first
		counts := make([]int, sc.N)
		for cyc := 0; cyc < cycles; cyc++ {
			w.RunCycle()
			for id := 0; id < sc.N; id++ {
				for s := 0; s < samplesPerNodePerCycle; s++ {
					p, err := w.SamplePeer(sim.NodeID(id))
					if err == nil {
						counts[p]++
					}
				}
			}
		}
		return uniformityRow(protos[pi], counts)
	})
	return res
}

func uniformityRow(proto core.Protocol, counts []int) UniformityRow {
	total, max := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	row := UniformityRow{
		Protocol:          proto,
		ChiSquare:         stats.ChiSquareUniform(counts),
		TotalVariation:    stats.TotalVariationUniform(counts),
		NormalizedEntropy: stats.NormalizedEntropy(counts),
	}
	if total > 0 {
		row.MaxOverMean = float64(max) * float64(len(counts)) / float64(total)
	}
	return row
}
