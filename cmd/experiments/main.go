// Command experiments reproduces every table and figure of the paper's
// evaluation section and prints paper-shaped text tables.
//
// Usage:
//
//	experiments -scale quick                  # all experiments, seconds
//	experiments -scale full -run table1,figure7
//	experiments -run hostile -metrics-addr 127.0.0.1:9090 -metrics-csv run.csv
//	experiments -run bootstrap,livechurn -driver subprocess -psnode ./psnode
//
// Scales: quick (N=500), medium (N=2500), full (the paper's N=10^4,
// c=30, 300 cycles, 100 repetitions). Experiment IDs: table1, figure2,
// figure3, figure4, table2, figure5, figure6, figure7, exclusion,
// uniformity, churn, ablation, plus the live extensions "bootstrap"
// (single-contact cluster convergence), "hostile" (connection flood +
// slowloris against a real cluster), "livechurn" (kill and respawn
// waves against the fleet), "livebroadcast" (epidemic rumor spread over
// the fleet's workload engines under a kill wave), "liveaggregate"
// (push-pull averaging variance decay and network size estimation),
// "livegateway" (every member's sampling gateway under ramping
// load-generator pressure through a kill wave) and "partitionheal"
// (partition a live fleet from a declarative fault plan, then watch it
// re-converge once the rules expire) — the experiments whose
// numbers are timing-dependent rather than seeded. The live
// experiments' fault logic (kill waves, floods, partitions, per-link
// latency/loss) replays from named chaos plans embedded in
// internal/chaos/plans. -list prints the full registry with each
// experiment's kind: "sim" for seeded cycle simulations, "live" for
// experiments that boot real clusters.
//
// The live experiments run on a fleet driver selected with -driver:
// "inproc" (default) keeps every node a goroutine in this process;
// "subprocess" forks one real psnode process per node (binary from
// -psnode, $PSNODE_BIN, or psnode on $PATH) and drives the fleet through
// each daemon's control agent, so churn and hostility cross real process
// boundaries.
//
// The live experiments can be observed while they run: -metrics-addr
// serves every cluster node's counters, exchange-latency histogram and
// view gauges on a Prometheus /metrics endpoint for the duration of the
// process (subprocess members are scraped through their agents and show
// up as stale sources once killed), and -metrics-csv appends periodic
// long-form snapshots (node,cycle,metric,value — the same schema the
// figure CSVs use) so a live run yields a time series like any simulated
// one. These flags only affect experiments that boot live clusters;
// cycle-based experiments emit their series via -csv.
//
// The exit status is non-zero when any experiment fails to run, and
// when any live experiment ran but reports that it did not converge; the
// error names every such experiment, after all of them have run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"peersampling/internal/fleet"
	"peersampling/internal/metrics"
	"peersampling/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run owns the process lifecycle. Errors return instead of calling
// log.Fatal so the deferred teardown — metrics server, final dump round,
// dump file close — runs on the failure paths too.
func run() error {
	var (
		list      = flag.Bool("list", false, "print every experiment ID with its kind and description, then exit")
		scaleName = flag.String("scale", "quick", "quick, medium or full")
		runList   = flag.String("run", "all", "comma-separated experiment IDs, or all")
		seed      = flag.Uint64("seed", 1, "master seed")
		csvDir    = flag.String("csv", "", "directory for raw CSV series (figures only)")

		metricsAddr = flag.String("metrics-addr", "",
			"serve live-experiment node metrics on http://<addr>/metrics while the process runs")
		metricsCSV = flag.String("metrics-csv", "",
			"append periodic live-experiment snapshots to this file (long-form CSV)")
		metricsEvery = flag.Duration("metrics-interval", 250*time.Millisecond,
			"snapshot interval for -metrics-csv")

		driver = flag.String("driver", fleet.DriverInproc,
			fmt.Sprintf("fleet driver for live experiments, one of %v", fleet.Drivers()))
		psnodeBin = flag.String("psnode", "",
			"psnode binary for -driver=subprocess (default: $PSNODE_BIN, then psnode on $PATH)")
	)
	flag.Parse()

	if *list {
		listExperiments()
		return nil
	}
	if *metricsEvery <= 0 {
		return fmt.Errorf("-metrics-interval must be positive, got %v", *metricsEvery)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	// A collector is attached to the live-cluster experiments (bootstrap,
	// hostile) when either metrics flag asks for one; registered nodes
	// stay observable after their experiment ends, so one endpoint serves
	// a whole multi-experiment run.
	var coll *metrics.Collector
	if *metricsAddr != "" || *metricsCSV != "" {
		coll = metrics.New()
	}
	if *metricsAddr != "" {
		srv, err := metrics.NewServer(coll, *metricsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("serving live-experiment metrics on http://%s/metrics\n\n", srv.Addr())
	}
	if *metricsCSV != "" {
		dumper, err := metrics.NewFileDumper(coll, *metricsCSV)
		if err != nil {
			return err
		}
		defer dumper.Close()
		dumper.Start(*metricsEvery)
		defer func() {
			if err := dumper.Stop(); err != nil {
				log.Printf("metrics: final dump: %v", err)
			}
		}()
	}

	env := scenario.LiveEnv{Collector: coll, Driver: *driver, Psnode: *psnodeBin}
	if *driver == fleet.DriverSubprocess && env.Psnode == "" {
		if fromEnv := os.Getenv("PSNODE_BIN"); fromEnv != "" {
			env.Psnode = fromEnv
		} else if onPath, err := exec.LookPath("psnode"); err == nil {
			env.Psnode = onPath
		} else {
			return fmt.Errorf("-driver=subprocess needs a psnode binary: pass -psnode, set $PSNODE_BIN, or put psnode on $PATH (go build ./cmd/psnode)")
		}
	}

	sc, err := scenario.ScaleByName(*scaleName)
	if err != nil {
		return err
	}

	var defs []scenario.Def
	if *runList == "all" {
		defs = scenario.All()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			def, ok := scenario.Find(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			defs = append(defs, def)
		}
	}

	fmt.Printf("reproduction scale %q: N=%d, c=%d, %d cycles, %d repetitions\n\n",
		sc.Name, sc.N, sc.ViewSize, sc.Cycles, sc.Reps)
	var unconverged []string
	for _, def := range defs {
		start := time.Now()
		// An error (say, the psnode fleet failing to spawn) returns through
		// run so the deferred collector/dumper teardown still happens.
		result, err := def.Run(sc, *seed, env)
		if err != nil {
			return fmt.Errorf("%s: %w", def.ID, err)
		}
		fmt.Printf("=== %s — %s (%.1fs)\n\n", def.ID, def.Title, time.Since(start).Seconds())
		fmt.Println(result.Render())
		if c, ok := result.(interface{ Converged() bool }); ok && def.Live && !c.Converged() {
			unconverged = append(unconverged, def.ID)
		}
		if *csvDir == "" {
			continue
		}
		if csver, ok := result.(scenario.CSVer); ok {
			for stem, content := range csver.CSV() {
				path := filepath.Join(*csvDir, stem+".csv")
				if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n\n", path)
			}
		}
	}
	if len(unconverged) > 0 {
		return fmt.Errorf("live experiments did not converge: %s", strings.Join(unconverged, ", "))
	}
	return nil
}

// listExperiments prints the registry: ID, kind and title per line. The
// kind says what runs underneath — "sim" for seeded cycle simulations,
// "live" for experiments that boot real clusters.
func listExperiments() {
	for _, def := range scenario.All() {
		kind := "sim"
		if def.Live {
			kind = "live"
		}
		fmt.Printf("%-14s %-5s %s\n", def.ID, kind, def.Title)
	}
}
