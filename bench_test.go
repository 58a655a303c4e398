// Benchmark harness: one sub-benchmark per simulated table and figure of
// the paper's evaluation section and per simulated extension. Each runs
// the experiment at the "quick" reproduction scale (N=500, c=30 — every
// qualitative shape of the paper holds there; `experiments -scale full`
// runs the paper's scale) and prints the paper-shaped result table once.
//
// Run with:
//
//	go test -bench=. -benchmem
//	go test -bench=Experiments/figure6
//
// Paper-scale reproduction (N=10^4, c=30, 300 cycles, 100 repetitions):
//
//	go run ./cmd/experiments -scale full
package peersampling_test

import (
	"fmt"
	"sync"
	"testing"

	"peersampling/internal/scenario"
)

// benchSeed keeps all harness benchmarks deterministic.
const benchSeed = 1

// printOnce emits each experiment's rendered table exactly once per
// process so benchmark reruns (-benchtime, b.N growth) do not spam.
var printOnce sync.Map

func report(b *testing.B, id string, render func() string) {
	b.Helper()
	if _, done := printOnce.LoadOrStore(id, true); !done {
		fmt.Printf("\n%s\n", render())
	}
}

// BenchmarkExperiments runs every simulated experiment of the registry as
// one sub-benchmark named by its ID.
func BenchmarkExperiments(b *testing.B) {
	for _, def := range scenario.All() {
		if def.Live {
			continue
		}
		b.Run(def.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := def.Run(scenario.Quick, benchSeed, scenario.LiveEnv{})
				if err != nil {
					b.Fatal(err)
				}
				report(b, def.ID, res.Render)
			}
		})
	}
}
