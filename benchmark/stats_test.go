package main

import (
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{27.8, 29.3, 9.9, 29.6, 29.3}, 29.3}, // one slice hit by a neighbour
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if median(nil) != 0 {
		t.Error("median of nothing should be 0")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]int, 100)
	for i := range sorted {
		sorted[i] = i + 1 // 1..100
	}
	for _, tc := range []struct {
		q    float64
		want int
	}{{0.5, 50}, {0.75, 75}, {0.99, 99}, {0.999, 100}, {0.001, 1}} {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("p%v of 1..100 = %d, want %d", 100*tc.q, got, tc.want)
		}
	}
	if got := percentile([]int{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %d, want 7", got)
	}
}

// A percentile is only reported when at least ten samples lie beyond it.
func TestTenSamplesBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // exactly 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{40, 0.75, true},   // rank 30, 10 beyond
		{39, 0.75, false},
		{30, 0.5, true},
		{19, 0.5, false},
	} {
		if got := supported(tc.n, tc.q); got != tc.want {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
	if q := tailQuantile(20_000); q != 0.99 {
		t.Errorf("a socket workload's slice should report p99, got p%v", 100*q)
	}
	if q := tailQuantile(30); q != 0.75 {
		t.Errorf("thirty simulator cycles should fall back to the upper quartile, got p%v", 100*q)
	}
}

// summarize must compute each figure per slice and report the median of
// the slices, so one disturbed slice does not move the result.
func TestSummarizeTakesSliceMedians(t *testing.T) {
	log := &driverLog{}
	run := &loadRun{logs: []*driverLog{log}}
	mark := func(at, cpu time.Duration) {
		run.marks = append(run.marks, mark{at: at, cpu: cpu, counts: []int{len(log.ns)}})
	}
	add := func(n int, ns uint32) {
		for range n {
			log.ns = append(log.ns, ns)
		}
	}
	add(500, 1) // warm-up, discarded
	mark(1*time.Second, 0)
	add(2000, 10_000)
	mark(2*time.Second, 100*time.Millisecond)
	add(500, 40_000) // the disturbed slice: a quarter of the ops, four times as slow
	mark(3*time.Second, 200*time.Millisecond)
	add(1999, 10_000)
	add(1, failedOp)
	mark(4*time.Second, 299950*time.Microsecond)
	add(77, 5) // tail after the last mark, discarded

	e := run.summarize()
	if e.attempted != 4500 || e.failed != 1 {
		t.Errorf("attempted %d failed %d, want 4500 and 1", e.attempted, e.failed)
	}
	if e.opsPerS != 1999 {
		t.Errorf("ops_per_s = %v, want the median slice's 1999 (a failed op is not a completed one)", e.opsPerS)
	}
	if e.p50us != 10 {
		t.Errorf("p50 = %v us, want 10", e.p50us)
	}
	if e.cpuUsPerOp != 50 {
		t.Errorf("cpu = %v us/op, want the median slice's 50", e.cpuUsPerOp)
	}
	if e.tailQ != 0.99 || e.samples != 2000 {
		t.Errorf("tail quantile %v over %d samples, want p99 over 2000", e.tailQ, e.samples)
	}
	if got := run.issued(); got != 5077 {
		t.Errorf("issued = %d, want 5077", got)
	}
}

func TestSummarizeSerial(t *testing.T) {
	ns := []int64{200e6, 100e6, 300e6, 100e6, 100e6}
	e := summarizeSerial(ns, 0, time.Second, 1e5)
	if e.p50us != 100e3 {
		t.Errorf("p50 = %v us, want 100000", e.p50us)
	}
	if e.opsPerS != 1e6 {
		t.Errorf("ops_per_s = %v, want 1e5 units per 0.1 s median op = 1e6", e.opsPerS)
	}
	if e.cpuUsPerOp != 200e3 {
		t.Errorf("cpu = %v us/op, want 1 s over 5 ops", e.cpuUsPerOp)
	}
	if e.tailQ != 0.75 || e.p99us != 200e3 {
		t.Errorf("tail p%v = %v us, want the upper quartile 200000", 100*e.tailQ, e.p99us)
	}
}
