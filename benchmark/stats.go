package main

import (
	"math"

	"peersampling/internal/stats"
)

// minBeyond is the number of samples that must lie beyond a percentile
// for it to be reported: with fewer, the figure is one or two outliers,
// not a property of the system.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty input.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the samples
// at or below it. sorted must be ascending and non-empty.
func percentile[T any](sorted []T, q float64) T {
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// supported reports whether n samples leave at least minBeyond of them
// beyond the q-quantile.
func supported(n int, q float64) bool {
	rank := int(math.Ceil(q * float64(n)))
	return n-rank >= minBeyond
}

// tailQuantile is the quantile reported under the name op_p99_us: p99
// where the window holds enough samples for it, else the upper quartile —
// on the two simulator workloads an op takes 0.1–0.2 s, so a window holds
// a few dozen of them and no higher percentile means anything.
func tailQuantile(n int) float64 {
	if supported(n, 0.99) {
		return 0.99
	}
	return 0.75
}
