// Package scenario reproduces the paper's complete experimental
// methodology as a registry of named, seeded experiments. Each experiment
// (table1, figure2..figure7, table2, exclusion) rebuilds one artefact of
// the evaluation section and renders a paper-shaped text table; the
// extensions (uniformity, churn, ablation, and the seven live drills)
// answer questions the paper raises but does not measure.
//
// Experiments are pure functions of (Scale, seed): Scale picks the
// network size, view capacity, cycle counts and estimator effort (Quick
// for seconds, Medium for minutes, Full for the paper's N = 10^4 with 100
// repetitions), and the seed drives every RNG through deterministic
// derivation (mix), so any row of any table can be regenerated exactly.
// Repetitions run in parallel (forEachPar) with each index writing only
// its own result slot, which keeps parallelism invisible to the output.
//
// The simulations share one harness: simDef validates the Scale, so
// Def.Run returns an invalid one as an error and the drivers assume a
// valid one; perProtocol builds each protocol's random start and runs
// the driver's body on it in parallel; removalProfile is the Figure 6
// removal sweep, reused by the ablation. A Result only
// renders; the Def that produced it carries its ID. testdata/ pins every
// simulated table and CSV at the tiny test scale.
//
// Most experiments run on the cycle-based simulator (internal/sim). The
// exceptions are the live drills, which boot a real cluster on a fleet
// driver (internal/fleet, selected through LiveEnv — daemons in this
// process or forked psnode processes):
//
//   - RunLiveBootstrap measures single-contact convergence;
//   - RunHostile attacks one node with a connection flood and slowloris
//     peers to prove the transport hardening layer holds;
//   - RunLiveChurn kills and respawns a fraction of the fleet per round
//     to prove re-convergence;
//   - RunLiveBroadcast spreads one rumor through a kill wave;
//   - RunLiveAggregate measures push-pull variance decay and estimates
//     the fleet's size;
//   - RunLiveGateway loads every member's sampling gateway through a
//     kill wave;
//   - RunLivePartition cuts the fleet in two and watches it heal.
//
// All seven share one harness (live.go): deriveShape sizes the fleet
// from the Scale, LiveEnv.boot builds it, spawns it from one contact and
// waits for complete views, pollUntil is the one poll loop, and
// liveHead renders the common report header. Fault logic replays from
// named internal/chaos plans. Their counters are timing-dependent where
// everything else is seeded.
//
// Each Def has one entry point, Run(Scale, seed, LiveEnv); simulations
// ignore the environment. Command experiments (cmd/experiments) is the
// CLI over this registry.
package scenario
