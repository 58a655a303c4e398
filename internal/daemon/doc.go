// Package daemon is the runtime behind cmd/psnode: a Manager that owns
// one sampling node and wires the service surface around it as discrete
// plugins — the Prometheus metrics server, the periodic CSV
// dumper, the periodic report logger, the fleet control agent, and the
// light-client sampling gateway. Each plugin has a Start/Stop lifecycle
// and a Status, and the manager aggregates every status into one report
// served on the control agent's and gateway's /healthz endpoints. The
// manager also owns the node's fault rules (SetFaultRules), which shape
// every exchange the node initiates.
//
// The manager is built from an internal/config Config and supports live
// reload: Reload diffs the running config against a freshly loaded one
// (config.Diff) and hands each changed hot section once to the component
// that owns it — the transport section's Limits onto the live listener,
// the gateway section's gateway.Config onto the gateway, added contacts
// into the view — logging a change as applied only when a running
// component took it. It reports the restart-required remainder for the
// operator to act on. The dumper and reporter run on internal/loop and
// read the report interval each round, so a reloaded interval applies
// from their next round. cmd/psnode triggers Reload from SIGHUP.
//
// # Agent endpoint contract
//
// A daemon whose config sets control.addr serves a tiny HTTP/JSON
// control surface (the "agent") that the fleet's subprocess driver — and
// anything else, e.g. a future container orchestrator — drives:
//
//	GET  /healthz   -> AgentInfo: pid, gossip address, control address,
//	                   plus the aggregated Report under "daemon"
//	GET  /snapshot  -> metrics.NodeSnapshot: protocol counters, wire
//	                   counters, exchange-latency histogram, view gauges
//	GET  /view      -> [{"addr": "...", "hop": n}, ...] — the full view
//	POST /faults    -> replaces the fault rules with a JSON array of
//	                   transport.FaultRule ([] heals everything)
//	POST /stop      -> begins a graceful shutdown, returns immediately
//
// The /snapshot body is exactly what metrics.Remote scrapes, which is how
// a fleet lands in the same Prometheus exposition and long-form CSV
// schema as in-process nodes. Address discovery uses a ready file
// (control.ready_file): the daemon atomically writes AgentInfo as JSON
// once its listeners are bound (WriteReady), and the parent polls for
// the file (ReadReady) — no stdout parsing, no port races.
package daemon
