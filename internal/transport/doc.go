// Package transport provides the message-passing substrate for the
// asynchronous peer sampling runtime: an abstract Transport interface and
// one request/reply engine behind every backend. An exchange sends one
// frame and, for pull or push-pull, gets one back; gossip frames and
// application payload frames (AppCarrier) are two families of one
// compact binary envelope and share the same round trip and the same
// passive dispatch. The engine runs over three connection strategies:
// an in-memory fabric (tests and single-process simulations), a TCP
// stream, and UDP datagrams. A fixed table names the real backends —
// "tcp-pooled" (the stream with persistent per-peer connections and idle
// eviction; the production default), "tcp" (the stream without an idle
// pool, so every exchange dials) and "udp" (one exchange per datagram
// pair; cheapest, lossy by nature) — so daemons can select one at the
// command line, and they export wire-level counters via StatsReporter.
//
// Faults come from FaultRules only: cut links, loss and latency, matched
// per directed link and held in a FaultSet. No backend reads one: a
// runtime node applies its own set (runtime.Config.Faults) before each
// exchange it initiates, on every backend alike. A partition is a Cut
// rule on each direction of every crossing link.
//
// # Hardening against hostile networks
//
// The paper evaluates its protocols under catastrophic failure; this
// package makes the transport underneath survive adversarial load, since
// sampling-layer guarantees only hold while the listener still has file
// descriptors and goroutines to serve legitimate peers with. Every real
// backend takes a Limits:
//
//   - Limits.MaxConns caps how many accepted connections a listener
//     serves concurrently. Excess connections are closed on accept and
//     counted in Stats.AcceptRejects — backpressure instead of one
//     goroutine per accept, so a connection flood saturates a counter,
//     not the process. On UDP the cap bounds concurrent handler
//     goroutines instead (datagrams have no connections).
//   - Served TCP connections live under a read budget: a short window
//     for the opening frame (slowloris eviction), then a keep-alive that
//     the connection earns — the full Limits.KeepAlive once it has
//     initiated a pull, and only the shrunken Limits.PushOnlyKeepAlive
//     while it has merely pushed, because a peer that consumes a serve
//     slot without ever asking for data is what a resource-holding
//     attack looks like. Budget expiries are counted in
//     Stats.KeepAliveEvictions.
//
// The keep-alive schedule interlocks with the connection pool: pooled
// initiators abandon idle connections within PoolConfig.IdleTimeout, and
// the default passive budgets exceed it, so the serving side never closes
// a connection a well-behaved peer might still write a push into. See
// Limits.KeepAlive for the exact contract when tuning below the defaults,
// and internal/scenario's "hostile" experiment for the live attack drill
// that exercises all of this against a real cluster.
package transport
