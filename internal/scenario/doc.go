// Package scenario reproduces the paper's complete experimental
// methodology as a registry of named, seeded experiments. Each experiment
// (table1, figure2..figure7, table2, exclusion) rebuilds one artefact of
// the evaluation section and renders a paper-shaped text table; the
// extensions (uniformity, churn, ablation, and the live bootstrap,
// hostile and livechurn drills) answer questions the paper raises but
// does not measure.
//
// Experiments are pure functions of (Scale, seed): Scale picks the
// network size, view capacity, cycle counts and estimator effort (Quick
// for seconds, Medium for minutes, Full for the paper's N = 10^4 with 100
// repetitions), and the seed drives every RNG through deterministic
// derivation (mix), so any row of any table can be regenerated exactly.
// Repetitions run in parallel (forEachPar) with each index writing only
// its own result slot, which keeps parallelism invisible to the output.
//
// Most experiments run on the cycle-based simulator (internal/sim). The
// exceptions are the live drills, which boot a real cluster on a fleet
// driver (internal/fleet, selected through LiveEnv — daemons in
// this process or forked psnode processes): RunLiveBootstrap measures
// single-contact convergence, RunHostile attacks one node with a
// connection flood and slowloris peers to prove the transport hardening
// layer holds, and RunLiveChurn kills and respawns a fraction of the
// fleet per round to prove re-convergence. Their counters are
// timing-dependent where everything else is seeded.
//
// Command experiments (cmd/experiments) is the CLI over this registry.
package scenario
