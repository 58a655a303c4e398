// Command psim runs one peer sampling protocol on one bootstrap scenario
// and streams per-cycle overlay metrics as CSV — the raw material for
// regenerating any line of the paper's figures with a plotting tool.
//
// Usage:
//
//	psim -protocol "(rand,head,pushpull)" -scenario random -n 10000 -c 30 -cycles 300
//
// Scenarios: random, lattice, growing. Failure injection: -kill 0.5
// fails half the nodes at cycle -killat (1 ≤ -killat ≤ -cycles), after
// which dead links are tracked (the paper's Figure 7 setup).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"peersampling/internal/core"
	"peersampling/internal/scenario"
	"peersampling/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("psim: ")

	var (
		protoFlag = flag.String("protocol", "(rand,head,pushpull)", "protocol tuple, e.g. (tail,rand,push)")
		scen      = flag.String("scenario", "random", "bootstrap scenario: random, lattice, growing")
		n         = flag.Int("n", 10_000, "network size")
		c         = flag.Int("c", 30, "view size")
		cycles    = flag.Int("cycles", 300, "cycles to run")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		every     = flag.Int("every", 1, "measure every k cycles")
		growth    = flag.Int("growth", 100, "nodes joining per cycle (growing scenario)")
		kill      = flag.Float64("kill", 0, "fraction of nodes to fail at -killat")
		killAt    = flag.Int("killat", 0, "cycle at which the failure strikes")
		pathSrc   = flag.Int("pathsources", 24, "BFS sources for path length estimation (0 = exact)")
		clustSmpl = flag.Int("clustsample", 600, "sampled nodes for clustering (0 = exact)")
	)
	flag.Parse()

	proto, err := core.ParseProtocol(*protoFlag)
	if err != nil {
		log.Fatal(err)
	}
	if err := checkKill(*kill, *killAt, *cycles); err != nil {
		log.Fatal(err)
	}
	cfg := sim.Config{Protocol: proto, ViewSize: *c, Seed: *seed}
	mc := sim.MetricsConfig{PathSources: *pathSrc, ClusteringSample: *clustSmpl, Seed: *seed}

	var w *sim.Network
	growing := false
	switch *scen {
	case "random":
		w = scenario.BuildRandom(cfg, *n)
	case "lattice":
		w = scenario.BuildLattice(cfg, *n)
	case "growing":
		w = scenario.BuildGrowingSeed(cfg)
		growing = true
	default:
		log.Fatalf("unknown scenario %q (want random, lattice or growing)", *scen)
	}

	fmt.Println("cycle,live,edges,avgdeg,mindeg,maxdeg,clustering,pathlen,components,largest,deadlinks")
	emit := func(o sim.Observation) {
		fmt.Printf("%d,%d,%d,%.4f,%d,%d,%.6f,%.4f,%d,%d,%d\n",
			o.Cycle, o.LiveNodes, o.Edges, o.AvgDegree, o.MinDegree, o.MaxDegree,
			o.Clustering, o.PathLen, o.Components, o.Largest, o.DeadLinks)
	}
	emit(w.Observe(mc))
	for cyc := 1; cyc <= *cycles; cyc++ {
		if growing {
			scenario.GrowStep(w, *growth, *n)
		}
		if *kill > 0 && cyc == *killAt {
			killed := w.KillFraction(*kill)
			fmt.Fprintf(os.Stderr, "killed %d nodes at cycle %d\n", len(killed), cyc)
		}
		w.RunCycle()
		if cyc%*every == 0 || cyc == *cycles {
			emit(w.Observe(mc))
		}
	}
}

// checkKill validates the failure-injection flags: the kill fraction lies
// in [0,1), and a positive one strikes at a cycle the run reaches, so
// -kill never silently does nothing.
func checkKill(kill float64, killAt, cycles int) error {
	if kill < 0 || kill >= 1 {
		return fmt.Errorf("kill fraction %v out of [0,1)", kill)
	}
	if kill > 0 && (killAt < 1 || killAt > cycles) {
		return fmt.Errorf("-killat %d outside 1..%d: the -kill %v failure would never strike", killAt, cycles, kill)
	}
	return nil
}
