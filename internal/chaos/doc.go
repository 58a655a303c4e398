// Package chaos turns fault injection into data: named, versioned plan
// documents describe a timeline of events — kill waves (by fraction or by
// member name, with optional respawn), asymmetric partitions, per-link
// latency and loss, connection floods — and an Executor replays a plan
// against any fleet.Cluster. The paper's failure experiments (catastrophic
// loss, churn, self-healing) thereby run from declarative artifacts that
// ship in-repo instead of ad-hoc kill code scattered through scenarios.
//
// Plans are JSON documents read through internal/config's strict
// document reader: duplicate or unknown keys, malformed values and
// contradictory events are rejected with dotted field paths before
// anything touches the fleet. Rule events
// compile to transport.FaultRule tables pushed through Cluster.SetFaultRules,
// so the same plan disturbs in-process goroutine members and forked psnode
// processes identically. The Executor can be stepped (scenario-paced, each
// Step applies the next timeline entry immediately) or Run (real-clock,
// honouring the events' time offsets), chooses victims with a seeded RNG,
// and exports what it did as chaos_event rows and a
// peersampling_chaos_active gauge on the shared metrics schema, so fault
// timelines plot against convergence traces.
package chaos
