// Package fleet is the multi-process experiment harness: it boots, kills
// and observes clusters of peer sampling nodes behind one Cluster
// interface, so a live scenario written once runs unchanged against
// daemons in this process or against real psnode processes.
//
// # Driver matrix
//
//	driver       member is            Kill means             observed via
//	inproc       a daemon.Manager     Manager.Close          direct method calls
//	subprocess   a psnode process     SIGKILL                control-agent HTTP scrapes
//
// Both drivers boot every member from the same generated daemon config,
// so a member is the same daemon either way. The inproc driver runs it in
// this process: cheap, no real process boundary, and a dead member's
// final state stays readable. The subprocess driver writes the config to
// disk and forks the psnode binary per member; churn then kills real
// listeners with real kernel state, which is the fidelity the paper's
// experimental method asks of a deployment-facing harness. Subprocess
// members are driven through the daemon's control agent (the contract
// is in internal/daemon's package doc).
//
// Fault rules are per member: Cluster.SetFaultRules hands them to every
// member's daemon and remembers them for later spawns, so two clusters
// in one process never share a fault.
package fleet
