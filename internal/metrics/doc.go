// Package metrics is the observability subsystem for live peer sampling
// deployments: a dependency-free Collector that periodically snapshots
// registered nodes — protocol counters (cycles, exchanges, failures,
// served), every wire-level transport counter, the exchange-latency
// histogram, and view-shape gauges (size, min/mean/max hop age) — and
// exposes the snapshots two ways:
//
//   - Server publishes an HTTP /metrics endpoint in the Prometheus text
//     exposition format (hand-rolled writer, standard library only), the
//     continuous-scrape face of a long-running daemon; the response's
//     Last-Modified header carries the newest successful source poll;
//   - Dumper appends periodic long-form CSV (node,cycle,metric,value —
//     the same schema internal/scenario's renderers emit for the paper's
//     figures, so live traces and simulator traces are directly
//     comparable).
//
// Both read a snapshot through one table of fields: each exported
// quantity names its long-form metric and its Prometheus family in a
// single entry, so the two exports cannot drift apart. The psnode report
// log prints the same long-form rows.
//
// Sources need not live in this process: Remote implements the Poller
// interface by scraping another node's fleet-agent /snapshot endpoint,
// and the Collector caches each source's last good snapshot so a member
// that dies is replayed marked Stale (peersampling_source_up 0, a frozen
// peersampling_source_last_update_seconds) instead of vanishing from the
// exposition — dead fleet members stay visible at scrape time.
//
// The paper's methodology is measurement: every figure is a time series
// of overlay properties sampled while the protocol runs. The simulator
// side has always produced those series; this package gives the runtime
// side (psnode, the live hostile/bootstrap scenarios) the same
// continuous instrumentation over real sockets.
package metrics
