package metrics

import (
	"peersampling/internal/app"
	"peersampling/internal/transport"
)

// field is one exported scalar of a NodeSnapshot, named once for every
// exporter: csv is its long-form metric name (Rows, the dump files, the
// psnode report log), prom its Prometheus family. An empty name skips
// that export. get reports ok=false when the snapshot does not carry the
// value (a node without a workload has no app counters), which omits the
// row and the sample.
type field struct {
	csv, prom, help string
	counter         bool
	get             func(NodeSnapshot) (float64, bool)
}

// fields lists every scalar in exposition order. The wire counters are
// generated from transport.Stats.Named, so a counter added there is
// exported everywhere without touching this table.
var fields = append([]field{
	{"cycles", "peersampling_cycles_total", "Active gossip cycles run.", true,
		func(s NodeSnapshot) (float64, bool) { return float64(s.Cycles), true }},
	{"exchanges", "peersampling_exchanges_total", "Completed active exchanges.", true,
		func(s NodeSnapshot) (float64, bool) { return float64(s.Exchanges), true }},
	{"failures", "peersampling_exchange_failures_total", "Failed active exchanges (unreachable peers, timeouts).", true,
		func(s NodeSnapshot) (float64, bool) { return float64(s.Failures), true }},
	{"served", "peersampling_requests_served_total", "Passive exchanges served to other nodes.", true,
		func(s NodeSnapshot) (float64, bool) { return float64(s.Served), true }},
	{"view_size", "peersampling_view_size", "Current partial view occupancy (capacity is the protocol parameter c).", false,
		func(s NodeSnapshot) (float64, bool) { return float64(s.ViewSize), true }},
	{"view_hop_min", "peersampling_view_hop_min", "Lowest hop age in the view (freshest descriptor).", false,
		func(s NodeSnapshot) (float64, bool) { return float64(s.HopMin), true }},
	{"view_hop_mean", "peersampling_view_hop_mean", "Mean hop age across the view.", false,
		func(s NodeSnapshot) (float64, bool) { return s.HopMean, true }},
	{"view_hop_max", "peersampling_view_hop_max", "Highest hop age in the view (stalest descriptor).", false,
		func(s NodeSnapshot) (float64, bool) { return float64(s.HopMax), true }},
	{"", "peersampling_source_up", "1 when the source answered this scrape's poll, 0 when its last snapshot is being replayed (dead or partitioned fleet member).", false,
		func(s NodeSnapshot) (float64, bool) {
			if s.Stale {
				return 0, true
			}
			return 1, true
		}},
	{"", "peersampling_source_last_update_seconds", "Unix time of the source's last successful poll; stops advancing when the source dies.", false,
		func(s NodeSnapshot) (float64, bool) { return float64(s.UnixMillis) / 1000, true }},

	// Workload engine: infection state and the averaging estimate are
	// gauges; everything else counts engine activity.
	{"app_rounds", "peersampling_app_rounds_total", "Workload engine rounds ticked.", true,
		inPart(appPart, func(a *app.Snapshot) float64 { return float64(a.Rounds) })},
	{"app_sent", "peersampling_app_messages_sent_total", "Workload payloads delivered to drawn peers.", true,
		inPart(appPart, func(a *app.Snapshot) float64 { return float64(a.Sent) })},
	{"app_received", "peersampling_app_messages_received_total", "Workload payloads received from peers.", true,
		inPart(appPart, func(a *app.Snapshot) float64 { return float64(a.Received) })},
	{"app_failures", "peersampling_app_failures_total", "Workload deliveries that failed (unreachable peers, timeouts).", true,
		inPart(appPart, func(a *app.Snapshot) float64 { return float64(a.Failures) })},
	{"app_infected", "peersampling_app_infected", "1 when the broadcast engine holds the rumor, 0 otherwise.", false,
		inPart(appPart, func(a *app.Snapshot) float64 { return a.Infected })},
	{"app_value", "peersampling_app_value", "Current estimate of the push-pull averaging engine.", false,
		inPart(appPart, func(a *app.Snapshot) float64 { return a.Value })},

	{"gateway_requests", "peersampling_gateway_requests_total", "Sample requests accepted for serving.", true,
		inPart(gatewayPart, func(g *GatewaySnapshot) float64 { return float64(g.Requests) })},
	{"gateway_peers_served", "peersampling_gateway_peers_served_total", "Peer addresses returned across all sample requests.", true,
		inPart(gatewayPart, func(g *GatewaySnapshot) float64 { return float64(g.PeersServed) })},
	{"gateway_rate_limited", "peersampling_gateway_rate_limited_total", "Sample requests refused with 429 by the per-client rate limit.", true,
		inPart(gatewayPart, func(g *GatewaySnapshot) float64 { return float64(g.RateLimited) })},
	{"gateway_unavailable", "peersampling_gateway_unavailable_total", "Sample requests refused with 503 because the sample cache was empty.", true,
		inPart(gatewayPart, func(g *GatewaySnapshot) float64 { return float64(g.Unavailable) })},
	{"gateway_refreshes", "peersampling_gateway_refreshes_total", "Completed sample-cache refresh rounds.", true,
		inPart(gatewayPart, func(g *GatewaySnapshot) float64 { return float64(g.Refreshes) })},
	{"gateway_clients", "peersampling_gateway_clients", "Client rate-limit buckets currently tracked.", false,
		inPart(gatewayPart, func(g *GatewaySnapshot) float64 { return float64(g.Clients) })},
	{"gateway_cache_size", "peersampling_gateway_cache_size", "Distinct peers in the current sample batch.", false,
		inPart(gatewayPart, func(g *GatewaySnapshot) float64 { return float64(g.CacheSize) })},
	{"gateway_cache_age_seconds", "peersampling_gateway_cache_age_seconds", "Age of the current sample batch.", false,
		inPart(gatewayPart, func(g *GatewaySnapshot) float64 { return g.CacheAgeSeconds })},

	{"chaos_active_rules", "peersampling_chaos_active", "Fault rules currently installed on the fleet's transports by the running chaos plan.", false,
		inPart(chaosPart, func(c *ChaosSnapshot) float64 { return float64(c.ActiveRules) })},
	{"", "peersampling_chaos_events_total", "Chaos plan timeline steps applied (kills, partitions, rule expiries, floods).", true,
		inPart(chaosPart, func(c *ChaosSnapshot) float64 { return float64(c.Events) })},
	{"chaos_killed", "peersampling_chaos_killed_total", "Members killed by the chaos plan.", true,
		inPart(chaosPart, func(c *ChaosSnapshot) float64 { return float64(c.Killed) })},
	{"chaos_respawned", "peersampling_chaos_respawned_total", "Members respawned by the chaos plan.", true,
		inPart(chaosPart, func(c *ChaosSnapshot) float64 { return float64(c.Respawned) })},
	{"chaos_flood_dials", "", "", true,
		inPart(chaosPart, func(c *ChaosSnapshot) float64 { return float64(c.FloodDials) })},
}, wireFields()...)

// histogram is one exported latency histogram: a native Prometheus
// histogram family, and p50/p99 long-form columns named csv+"_p50" and
// csv+"_p99". get returns nil when the snapshot carries none.
type histogram struct {
	csv, prom, help string
	get             func(NodeSnapshot) *transport.LatencySnapshot
}

var histograms = []histogram{
	{"exchange_latency", "peersampling_exchange_latency_seconds", "Round-trip time of completed active exchanges.",
		func(s NodeSnapshot) *transport.LatencySnapshot { return s.Latency }},
	{"gateway_latency", "peersampling_gateway_latency_seconds", "Serve time of successful /v1/sample requests.",
		func(s NodeSnapshot) *transport.LatencySnapshot {
			if s.Gateway == nil {
				return nil
			}
			return s.Gateway.Latency
		}},
}

// wireFields exports every transport.Stats counter, by its position in
// Named, for snapshots whose transport keeps counters.
func wireFields() []field {
	named := transport.Stats{}.Named()
	out := make([]field, len(named))
	for i, c := range named {
		out[i] = field{"wire_" + c.Name, "peersampling_transport_" + c.Name + "_total",
			"Transport wire counter " + c.Name + " (see transport.Stats).", true,
			inPart(wirePart, func(w *transport.Stats) float64 { return float64(w.Named()[i].Value) })}
	}
	return out
}

// inPart reads a value from one optional part of a snapshot; ok is false
// when the snapshot does not carry that part.
func inPart[T any](part func(NodeSnapshot) *T, read func(*T) float64) func(NodeSnapshot) (float64, bool) {
	return func(s NodeSnapshot) (float64, bool) {
		p := part(s)
		if p == nil {
			return 0, false
		}
		return read(p), true
	}
}

func wirePart(s NodeSnapshot) *transport.Stats    { return s.Wire }
func appPart(s NodeSnapshot) *app.Snapshot        { return s.App }
func gatewayPart(s NodeSnapshot) *GatewaySnapshot { return s.Gateway }
func chaosPart(s NodeSnapshot) *ChaosSnapshot     { return s.Chaos }

// Rows flattens the snapshot into long-form rows keyed by the node name,
// with the node's own cycle count as the cycle column — the live analogue
// of the simulator's per-cycle observations: one row per field and two
// quantile rows per histogram the snapshot carries.
func (s NodeSnapshot) Rows() []LongRow {
	cycle := int(s.Cycles)
	var rows []LongRow
	for _, f := range fields {
		if f.csv == "" {
			continue
		}
		if v, ok := f.get(s); ok {
			rows = append(rows, LongRow{s.Node, cycle, f.csv, v})
		}
	}
	for _, h := range histograms {
		if lat := h.get(s); lat != nil {
			rows = append(rows,
				LongRow{s.Node, cycle, h.csv + "_p50", lat.Quantile(0.50)},
				LongRow{s.Node, cycle, h.csv + "_p99", lat.Quantile(0.99)},
			)
		}
	}
	if c := s.Chaos; c != nil {
		// One chaos_event row per applied step, keyed by its timeline
		// position, valued by its wall-clock second — the join column
		// against the convergence trace's source_last_update times. The
		// dumper trims Fired to the steps applied since the previous round
		// (see dump.go), keeping (node,cycle,metric) unique in dump files.
		for _, e := range c.Fired {
			rows = append(rows,
				LongRow{s.Node, e.Seq, "chaos_event", float64(e.UnixMillis) / 1000},
				LongRow{s.Node, e.Seq, "chaos_event_" + e.Action, float64(e.Targets)},
			)
		}
	}
	return rows
}
