//go:build !race

package runtime

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation slows every tick, so long tests shrink under it.
const raceEnabled = false
