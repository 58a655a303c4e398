package transport

import (
	"math"
	"sync/atomic"
	"time"
)

// LatencyBounds are the upper bounds, in seconds, of the exchange-latency
// histogram buckets. They span 100µs (loopback fabric exchanges) to 10s
// (an exchange at the default timeout), roughly 2.5x apart — the classic
// Prometheus-style exponential ladder. Observations above the last bound
// land in the implicit +Inf bucket (counted in Count only).
var LatencyBounds = latencyBounds[:]

var latencyBounds = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// LatencyHistogram is a fixed-bucket histogram of exchange round-trip
// times, safe for concurrent Observe and Snapshot. The zero value is
// ready to use; it is cheap enough to sit on every runtime node's hot
// path (one atomic add per bucket walk, no locks, no allocation).
type LatencyHistogram struct {
	buckets [numLatencyBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Uint64
}

// numLatencyBuckets tracks the bound ladder at compile time, so the
// atomic array can never fall out of step with LatencyBounds.
const numLatencyBuckets = len(latencyBounds)

// Observe records one exchange round-trip time.
func (h *LatencyHistogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNs.Add(uint64(d))
	sec := d.Seconds()
	for i, bound := range LatencyBounds {
		if sec <= bound {
			h.buckets[i].Add(1)
			return
		}
	}
	// Above every bound: only the implicit +Inf bucket (Count) holds it.
}

// Snapshot returns a point-in-time copy of the histogram. Counters are
// read individually, so a snapshot taken concurrently with Observe calls
// is approximate to within the in-flight observations — the same contract
// as Stats.
func (h *LatencyHistogram) Snapshot() LatencySnapshot {
	s := LatencySnapshot{
		Count:      h.count.Load(),
		SumSeconds: float64(h.sumNs.Load()) / float64(time.Second),
		Buckets:    make([]uint64, len(LatencyBounds)),
	}
	for i := range LatencyBounds {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// LatencySnapshot is a point-in-time copy of a LatencyHistogram, in the
// JSON shape the fleet agent serves: per-bucket counts aligned with
// LatencyBounds, plus the total count and sum.
type LatencySnapshot struct {
	// Count is the total number of observations, including those above
	// the last bucket bound.
	Count uint64 `json:"count"`
	// SumSeconds is the sum of all observed latencies.
	SumSeconds float64 `json:"sum_seconds"`
	// Buckets[i] counts observations <= LatencyBounds[i] and > the
	// previous bound (per-bucket, not cumulative).
	Buckets []uint64 `json:"buckets"`
}

// Cumulative returns the cumulative (Prometheus "le") counts aligned with
// LatencyBounds. The implicit +Inf bucket is Count.
func (s LatencySnapshot) Cumulative() []uint64 {
	out := make([]uint64, len(s.Buckets))
	var acc uint64
	for i, b := range s.Buckets {
		acc += b
		out[i] = acc
	}
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) in seconds by linear
// interpolation within the bucket that holds it, the standard
// histogram_quantile estimate. It returns 0 when the histogram is empty,
// and the last bound when the quantile falls in the +Inf bucket, which
// also holds any counts past the last bound (a snapshot decoded from a
// build with more buckets).
func (s LatencySnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var acc uint64
	lower := 0.0
	for i, b := range s.Buckets[:min(len(s.Buckets), len(LatencyBounds))] {
		if float64(acc+b) >= rank && b > 0 {
			within := (rank - float64(acc)) / float64(b)
			return lower + within*(LatencyBounds[i]-lower)
		}
		acc += b
		lower = LatencyBounds[i]
	}
	return LatencyBounds[len(LatencyBounds)-1]
}

// Add accumulates another snapshot into s, for fleet-wide totals.
// Bucket lists of different lengths (from a build with different
// LatencyBounds) are summed index by index into the longer of the two.
func (s *LatencySnapshot) Add(o LatencySnapshot) {
	s.Count += o.Count
	s.SumSeconds += o.SumSeconds
	if len(s.Buckets) < len(o.Buckets) {
		grown := make([]uint64, len(o.Buckets))
		copy(grown, s.Buckets)
		s.Buckets = grown
	}
	for i := range o.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}
