// Package loop runs one function periodically on its own goroutine — the
// shape of the paper's active thread (Figure 1: wait T, then gossip) and
// of every other background round in the repository: workload rounds,
// metrics dumps and reports, gateway cache refreshes and pool sweeps.
// Each of those owns a Loop, so the code that stops a background round
// and waits for its goroutine to exit lives here only.
package loop

import (
	"sync"
	"time"
)

// Loop is one background periodic goroutine; Every starts it and Stop
// ends it.
type Loop struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// Every calls fn on a new goroutine once per interval() at a fixed rate,
// until fn returns false or Stop is called. The first call comes one
// interval after the loop starts. interval is read at start and again
// after each call, so a changed value applies from the next round; it
// must return a positive duration.
func Every(interval func() time.Duration, fn func() bool) *Loop {
	l := &Loop{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		d := interval()
		ticker := time.NewTicker(d)
		defer ticker.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-ticker.C:
				if !fn() {
					return
				}
				if next := interval(); next != d {
					d = next
					ticker.Reset(d)
				}
			}
		}
	}()
	return l
}

// Stop ends the loop and returns once its goroutine has exited, waiting
// for a call of fn in progress. It is idempotent and safe for concurrent
// use, and returns at once when fn already ended the loop. fn must not
// call Stop on its own loop.
func (l *Loop) Stop() {
	l.once.Do(func() { close(l.stop) })
	<-l.done
}
