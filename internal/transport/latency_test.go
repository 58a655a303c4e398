package transport

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestLatencyHistogramObserveAndSnapshot(t *testing.T) {
	var h LatencyHistogram
	h.Observe(200 * time.Microsecond) // bucket le=0.00025
	h.Observe(200 * time.Microsecond)
	h.Observe(30 * time.Millisecond) // bucket le=0.05
	h.Observe(time.Minute)           // above every bound: +Inf only

	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("Count = %d want 4", s.Count)
	}
	wantSum := 2*0.0002 + 0.03 + 60.0
	if math.Abs(s.SumSeconds-wantSum) > 1e-9 {
		t.Errorf("SumSeconds = %v want %v", s.SumSeconds, wantSum)
	}
	var inBuckets uint64
	for _, b := range s.Buckets {
		inBuckets += b
	}
	if inBuckets != 3 {
		t.Errorf("bucketed observations = %d want 3 (the minute lives in +Inf)", inBuckets)
	}
	cum := s.Cumulative()
	if cum[len(cum)-1] != 3 {
		t.Errorf("cumulative tail = %d want 3", cum[len(cum)-1])
	}
	if cum[1] != 2 {
		t.Errorf("cumulative le=0.25ms = %d want 2", cum[1])
	}
}

func TestLatencySnapshotQuantile(t *testing.T) {
	var h LatencyHistogram
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("empty histogram p50 = %v want 0", q)
	}
	// 100 observations at ~2ms: p50 and p99 must land inside the
	// (0.001, 0.0025] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(2 * time.Millisecond)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.99} {
		got := s.Quantile(q)
		if got <= 0.001 || got > 0.0025 {
			t.Errorf("Quantile(%v) = %v, want within (0.001, 0.0025]", q, got)
		}
	}
	// Everything in +Inf clamps to the last bound.
	var inf LatencyHistogram
	inf.Observe(time.Hour)
	if got := inf.Snapshot().Quantile(0.5); got != LatencyBounds[len(LatencyBounds)-1] {
		t.Errorf("+Inf quantile = %v want last bound", got)
	}
	// Out-of-range q is clamped, not a panic.
	if got := s.Quantile(2); got <= 0 {
		t.Errorf("Quantile(2) = %v", got)
	}
	if got := s.Quantile(-1); got < 0 {
		t.Errorf("Quantile(-1) = %v", got)
	}
}

// A snapshot decoded from a build with more buckets than LatencyBounds
// (a remote agent's /snapshot) must not index past the bounds: counts past
// the last bound fall into +Inf, which reads as the last bound.
func TestLatencySnapshotQuantileLongBucketList(t *testing.T) {
	last := LatencyBounds[len(LatencyBounds)-1]
	long := LatencySnapshot{Count: 10, Buckets: make([]uint64, len(LatencyBounds)+2)}
	long.Buckets[3] = 6 // (0.0005, 0.001]
	long.Buckets[len(LatencyBounds)] = 4
	if got := long.Quantile(0.5); got <= 0.0005 || got > 0.001 {
		t.Errorf("p50 = %v, want within (0.0005, 0.001]", got)
	}
	if got := long.Quantile(0.99); got != last {
		t.Errorf("p99 = %v, want the last bound %v", got, last)
	}
	// Add keeps the longer list, so a fleet total carries it on.
	var total LatencySnapshot
	total.Add(long)
	if got := total.Quantile(0.99); got != last {
		t.Errorf("merged p99 = %v, want the last bound %v", got, last)
	}
}

func TestLatencySnapshotAdd(t *testing.T) {
	var a, b LatencyHistogram
	a.Observe(time.Millisecond)
	b.Observe(time.Second)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Add(sb)
	if sa.Count != 2 {
		t.Errorf("Count = %d want 2", sa.Count)
	}
	if math.Abs(sa.SumSeconds-1.001) > 1e-9 {
		t.Errorf("SumSeconds = %v want 1.001", sa.SumSeconds)
	}
	var total uint64
	for _, c := range sa.Buckets {
		total += c
	}
	if total != 2 {
		t.Errorf("bucketed = %d want 2", total)
	}
	// Merging into a zero snapshot grows its bucket slice.
	var zero LatencySnapshot
	zero.Add(sa)
	if zero.Count != 2 || len(zero.Buckets) != len(LatencyBounds) {
		t.Errorf("zero.Add: %+v", zero)
	}
}

// Observe and Snapshot must be safe to race; run under -race in CI.
func TestLatencyHistogramConcurrent(t *testing.T) {
	var h LatencyHistogram
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					_ = h.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 4000 {
		t.Errorf("Count = %d want 4000", got)
	}
}
