// Command psnode runs a real peer sampling node: the deployable daemon
// form of the service. The daemon is configured from a JSON file
// (-config), from flags, or from both — flags the user actually
// types override the file, untouched flags keep the file's values.
// Peers find each other through the configured bootstrap contacts and
// keep gossiping membership from then on.
//
// Usage:
//
//	psnode -config psnode.json
//	psnode -listen 127.0.0.1:7946 -metrics-addr 127.0.0.1:9090
//	psnode -config psnode.json -c 50 -transport udp
//
// Everything around the node — the Prometheus metrics server, the
// periodic CSV dumper, the report logger, the fleet control agent
// and the light-client sampling gateway — runs as a daemon plugin (see
// internal/daemon); each comes up only when its address or path is
// configured, and all report into the aggregated /healthz served on the
// control and gateway ports.
//
// A daemon started with -config reloads it on SIGHUP: hot fields
// (transport limits, report interval, gateway tuning, added contacts)
// are applied to the running process, restart-required fields are
// logged and kept at their running values. Stop with SIGINT/SIGTERM or
// the control agent's POST /stop.
package main

import (
	"flag"
	"fmt"
	"log"

	"peersampling"
)

func main() {
	log.SetFlags(log.Ltime)
	log.SetPrefix("psnode: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is a thin shell over internal/config + internal/daemon: resolve
// the effective config (file, then explicitly-set flag overrides), hand
// it to a daemon manager, and let Run own signals and reload.
func run() error {
	fs := flag.CommandLine
	cfgPath := fs.String("config", "", "load configuration from this JSON file; flags you set override it")
	flags := peersampling.ConfigFromFlags(fs)
	flag.Parse()
	if args := fs.Args(); len(args) > 0 {
		return fmt.Errorf("unexpected arguments: %v", args)
	}

	load := func() (peersampling.Config, error) {
		cfg := peersampling.DefaultConfig()
		if *cfgPath != "" {
			var err error
			if cfg, err = peersampling.LoadConfig(*cfgPath); err != nil {
				return cfg, err
			}
		}
		// The same overlay applies on SIGHUP reloads: a flag typed at boot
		// keeps winning over the re-read file, like an env override would.
		flags.Apply(&cfg)
		return cfg, cfg.Validate()
	}

	cfg, err := load()
	if err != nil {
		return err
	}
	m, err := peersampling.NewDaemon(cfg, peersampling.DaemonOptions{Logf: log.Printf})
	if err != nil {
		return err
	}
	if *cfgPath == "" {
		// Without a file there is nothing to re-read; Run logs and ignores
		// SIGHUP instead of reloading.
		return m.Run(nil)
	}
	return m.Run(load)
}
