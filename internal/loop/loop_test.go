package loop

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor fails the test when done is not closed within a generous bound,
// so a hang reports instead of stalling the suite until its timeout.
func waitFor(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not happen within 5s", what)
	}
}

func fixed(d time.Duration) func() time.Duration {
	return func() time.Duration { return d }
}

func TestEveryTicks(t *testing.T) {
	var calls atomic.Int64
	three := make(chan struct{})
	l := Every(fixed(time.Millisecond), func() bool {
		if calls.Add(1) == 3 {
			close(three)
		}
		return true
	})
	waitFor(t, three, "three ticks")
	l.Stop()
	after := calls.Load()
	time.Sleep(10 * time.Millisecond)
	if got := calls.Load(); got != after {
		t.Fatalf("fn ran %d more times after Stop returned", got-after)
	}
}

// TestEveryIntervalChangeAppliesNextTick starts with an hour-long period
// only after the first tick: if the loop kept its first interval, the
// second tick would come a millisecond later instead of never.
func TestEveryIntervalChangeAppliesNextTick(t *testing.T) {
	var mu sync.Mutex
	interval := time.Millisecond
	read := func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return interval
	}
	var calls atomic.Int64
	first := make(chan struct{})
	l := Every(read, func() bool {
		if calls.Add(1) == 1 {
			mu.Lock()
			interval = time.Hour
			mu.Unlock()
			close(first)
		}
		return true
	})
	defer l.Stop()
	waitFor(t, first, "the first tick")
	time.Sleep(50 * time.Millisecond)
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times; the hour interval should have applied after the first", got)
	}
}

func TestEveryFalseEndsLoop(t *testing.T) {
	var calls atomic.Int64
	ended := make(chan struct{})
	l := Every(fixed(time.Millisecond), func() bool {
		if calls.Add(1) == 2 {
			close(ended)
			return false
		}
		return true
	})
	waitFor(t, ended, "the second tick")
	stopped := make(chan struct{})
	go func() { l.Stop(); close(stopped) }()
	waitFor(t, stopped, "Stop after fn ended the loop")
	time.Sleep(10 * time.Millisecond)
	if got := calls.Load(); got != 2 {
		t.Fatalf("fn ran %d times after returning false on call 2", got)
	}
}

func TestStopIdempotentConcurrent(t *testing.T) {
	l := Every(fixed(time.Millisecond), func() bool { return true })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Stop()
		}()
	}
	all := make(chan struct{})
	go func() { wg.Wait(); close(all) }()
	waitFor(t, all, "eight concurrent Stops")
	l.Stop() // and once more after the rest
}

func TestStopWaitsForRunningFn(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var finished atomic.Bool
	var once sync.Once
	l := Every(fixed(time.Millisecond), func() bool {
		once.Do(func() { close(entered) })
		<-release
		finished.Store(true)
		return true
	})
	waitFor(t, entered, "the first call")
	stopped := make(chan struct{})
	go func() { l.Stop(); close(stopped) }()
	select {
	case <-stopped:
		t.Fatal("Stop returned while fn was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	waitFor(t, stopped, "Stop after fn returned")
	if !finished.Load() {
		t.Fatal("Stop returned before the running fn finished")
	}
}
