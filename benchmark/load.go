package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// drivers is D, the number of closed-loop callers every workload uses:
// one per core up to four, so the callers and the program share the
// machine without the scheduler becoming the thing measured.
func drivers() int { return min(runtime.NumCPU(), 4) }

// warmUp is run and discarded before every measured window.
const warmUp = time.Second

// failedOp is the latency recorded for a failed operation: it sorts beyond
// every real sample, so a failure counts as missing any latency limit.
const failedOp = math.MaxUint32

// opFunc is one closed-loop operation: the i-th issued by driver w. It
// returns false if the operation failed.
type opFunc func(w, i int) bool

// processCPU returns the user+system CPU time the process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mark is the state the sampler records at a slice boundary.
type mark struct {
	at     time.Duration // since the run started
	cpu    time.Duration
	counts []int // ops completed so far, per driver
}

// driverLog is one driver's record of a run: the latency of every op it
// completed, in order, warm-up included.
type driverLog struct {
	ns   []uint32     // ns per op, failedOp for a failure
	done atomic.Int64 // == len(ns), published for the sampler
}

// loadRun is the raw record of one closed-loop run.
type loadRun struct {
	logs           []*driverLog
	began          time.Time
	marks          []mark      // marks[0] ends the warm-up; each later one ends a slice
	mem            [2]memDelta // allocator counters at the window's two edges
	goroutinesPeak int
}

// runClosedLoop drives op from d goroutines — each issues its next
// operation when the previous one returns — for the warm-up plus window,
// and records a mark every second of the window. edge, if not nil, is
// called at the start and at the end of the window.
func runClosedLoop(d int, window time.Duration, op opFunc, edge func()) *loadRun {
	run := &loadRun{logs: make([]*driverLog, d)}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := range d {
		log := &driverLog{ns: make([]uint32, 0, 1<<20)}
		run.logs[w] = log
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				began := time.Now()
				ok := op(w, i)
				ns := uint32(min(time.Since(began), failedOp-1))
				if !ok {
					ns = failedOp
				}
				log.ns = append(log.ns, ns)
				log.done.Store(int64(len(log.ns)))
			}
		}()
	}
	run.began = time.Now()
	last := int(window / time.Second)
	for k := 0; k <= last; k++ {
		time.Sleep(time.Until(run.began.Add(warmUp + time.Duration(k)*time.Second)))
		m := mark{at: time.Since(run.began), cpu: processCPU(), counts: make([]int, d)}
		for w, log := range run.logs {
			m.counts[w] = int(log.done.Load())
		}
		run.marks = append(run.marks, m)
		run.goroutinesPeak = max(run.goroutinesPeak, runtime.NumGoroutine())
		if k == 0 || k == last {
			run.mem[min(k, 1)] = readMem()
			if edge != nil {
				edge()
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	return run
}

// issued is the number of ops the drivers started over the whole run,
// warm-up and the tail after the last mark included.
func (r *loadRun) issued() int {
	n := 0
	for _, log := range r.logs {
		n += len(log.ns)
	}
	return n
}

// window returns the latencies of the ops that completed between marks
// from and to, per driver.
func (r *loadRun) window(from, to int) [][]uint32 {
	out := make([][]uint32, len(r.logs))
	for w, log := range r.logs {
		out[w] = log.ns[r.marks[from].counts[w]:r.marks[to].counts[w]]
	}
	return out
}

// endToEnd is the set of end-to-end figures of one measured window, before
// set-up time and live heap are added.
type endToEnd struct {
	attempted, failed int
	opsPerS           float64
	p50us, p99us      float64
	tailQ             float64 // the quantile p99us actually holds
	samples           int     // per slice, median
	cpuUsPerOp        float64
}

// summarize computes each timing per one-second slice and reports the
// median across slices, which discards the slices a noisy neighbour hit.
func (r *loadRun) summarize() endToEnd {
	var rate, p50, p99, cpu, count []float64
	var e endToEnd
	var all []uint32
	for k := 0; k+1 < len(r.marks); k++ {
		all = all[:0]
		for _, ns := range r.window(k, k+1) {
			all = append(all, ns...)
		}
		slices.Sort(all)
		failed, _ := slices.BinarySearch(all, failedOp)
		failed = len(all) - failed
		e.attempted += len(all)
		e.failed += failed
		good := len(all) - failed
		if good == 0 {
			continue
		}
		dt := (r.marks[k+1].at - r.marks[k].at).Seconds()
		rate = append(rate, float64(good)/dt)
		p50 = append(p50, float64(percentile(all, 0.5))/1e3)
		e.tailQ = tailQuantile(len(all))
		p99 = append(p99, float64(percentile(all, e.tailQ))/1e3)
		cpu = append(cpu, float64((r.marks[k+1].cpu-r.marks[k].cpu).Microseconds())/float64(good))
		count = append(count, float64(len(all)))
	}
	e.opsPerS, e.p50us, e.p99us, e.cpuUsPerOp = median(rate), median(p50), median(p99), median(cpu)
	e.samples = int(median(count))
	return e
}

// runSerial is the closed loop for operations too long to slice (a
// simulator cycle takes 0.1–0.2 s): one caller, warm-up, then whole ops
// until the window has elapsed. It returns each measured op's duration
// and the CPU the process used over exactly those ops.
func runSerial(window time.Duration, op func() bool) (ns []int64, failed int, cpu time.Duration) {
	for began := time.Now(); time.Since(began) < warmUp; {
		op()
	}
	cpu0 := processCPU()
	for began := time.Now(); time.Since(began) < window; {
		t0 := time.Now()
		if !op() {
			failed++
		}
		ns = append(ns, int64(time.Since(t0)))
	}
	return ns, failed, processCPU() - cpu0
}

// summarizeSerial reports the median op duration over the whole window
// and the rate that median implies, unitsPerOp units of work at a time.
func summarizeSerial(ns []int64, failed int, cpu time.Duration, unitsPerOp float64) endToEnd {
	slices.Sort(ns)
	q := tailQuantile(len(ns))
	p50 := float64(percentile(ns, 0.5))
	return endToEnd{
		attempted:  len(ns),
		failed:     failed,
		opsPerS:    unitsPerOp / (p50 / 1e9),
		p50us:      p50 / 1e3,
		p99us:      float64(percentile(ns, q)) / 1e3,
		tailQ:      q,
		samples:    len(ns),
		cpuUsPerOp: float64(cpu.Microseconds()) / float64(len(ns)),
	}
}

// memDelta is the change in the allocator's and collector's counters over
// a window.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func readMem() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{m.Mallocs, m.TotalAlloc, m.NumGC, time.Duration(m.PauseTotalNs)}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcCycles - b.gcCycles, a.gcPause - b.gcPause}
}

// liveHeapMB forces two collections (the second frees what sync.Pools
// held through the first) and returns the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
