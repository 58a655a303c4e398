package transport

import "sync/atomic"

// Stats is a point-in-time snapshot of a transport endpoint's wire-level
// counters. All fields are cumulative since the endpoint was created.
type Stats struct {
	// Dials counts new outbound connections (TCP) or sockets (UDP)
	// created for exchanges.
	Dials uint64
	// Reuses counts exchanges served by a pooled connection instead of a
	// fresh dial. Always zero for unpooled transports.
	Reuses uint64
	// BytesOut and BytesIn count payload plus framing bytes written and
	// read by this endpoint, on both the active and passive side.
	BytesOut uint64
	BytesIn  uint64
	// FramesOut and FramesIn count complete frames (TCP) or datagrams
	// (UDP) written and read.
	FramesOut uint64
	FramesIn  uint64
	// DatagramsDropped counts messages lost to the datagram nature of a
	// backend: incoming datagrams or frames discarded because they were
	// oversized, truncated or failed to decode; (UDP only) pull exchanges
	// that timed out awaiting a response datagram — the client-visible
	// face of a lost request or reply; and (UDP only) response datagrams
	// the serving side could not send, whether unencodable, oversized or
	// failed at the socket write.
	DatagramsDropped uint64
	// AcceptRejects counts inbound work refused at the Limits.MaxConns
	// cap: TCP connections closed straight after accept, and UDP
	// datagrams dropped because every handler slot was busy. A non-zero
	// value under normal load means the cap is too low for the cluster;
	// under attack it is the hardening doing its job.
	AcceptRejects uint64
	// KeepAliveEvictions counts served TCP connections closed because the
	// peer exceeded a read budget: never sent an opening frame within
	// Limits.FirstFrameTimeout (slowloris), or idled past its earned
	// keep-alive (Limits.KeepAlive after a pull, Limits.PushOnlyKeepAlive
	// otherwise). Always zero on UDP.
	KeepAliveEvictions uint64
}

// StatsReporter is implemented by transports that keep wire-level
// counters. The runtime surfaces these alongside Node.Stats.
type StatsReporter interface {
	TransportStats() Stats
}

// NamedCounter pairs one Stats counter with a stable snake_case name, the
// identifier exporters embed in metric names and CSV rows.
type NamedCounter struct {
	Name  string
	Value uint64
}

// Named enumerates every counter of the snapshot as (name, value) pairs in
// declaration order. Exporters (internal/metrics, the psnode reporter)
// iterate this instead of naming fields, so a counter added to Stats
// cannot silently miss the export: a reflection test fails the build of
// this package until the new field is added here.
func (s Stats) Named() []NamedCounter {
	return []NamedCounter{
		{"dials", s.Dials},
		{"reuses", s.Reuses},
		{"bytes_out", s.BytesOut},
		{"bytes_in", s.BytesIn},
		{"frames_out", s.FramesOut},
		{"frames_in", s.FramesIn},
		{"datagrams_dropped", s.DatagramsDropped},
		{"accept_rejects", s.AcceptRejects},
		{"keepalive_evictions", s.KeepAliveEvictions},
	}
}

// Add accumulates another snapshot into s, for cluster-wide totals. Like
// Named, it is covered by the exhaustiveness test, so a new counter
// cannot be silently left out of aggregation.
func (s *Stats) Add(o Stats) {
	s.Dials += o.Dials
	s.Reuses += o.Reuses
	s.BytesOut += o.BytesOut
	s.BytesIn += o.BytesIn
	s.FramesOut += o.FramesOut
	s.FramesIn += o.FramesIn
	s.DatagramsDropped += o.DatagramsDropped
	s.AcceptRejects += o.AcceptRejects
	s.KeepAliveEvictions += o.KeepAliveEvictions
}

// counters is the atomic backing store shared by the TCP and UDP
// transports. The zero value is ready to use.
type counters struct {
	dials         atomic.Uint64
	reuses        atomic.Uint64
	bytesOut      atomic.Uint64
	bytesIn       atomic.Uint64
	framesOut     atomic.Uint64
	framesIn      atomic.Uint64
	dropped       atomic.Uint64
	acceptRejects atomic.Uint64
	kaEvictions   atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Dials:              c.dials.Load(),
		Reuses:             c.reuses.Load(),
		BytesOut:           c.bytesOut.Load(),
		BytesIn:            c.bytesIn.Load(),
		FramesOut:          c.framesOut.Load(),
		FramesIn:           c.framesIn.Load(),
		DatagramsDropped:   c.dropped.Load(),
		AcceptRejects:      c.acceptRejects.Load(),
		KeepAliveEvictions: c.kaEvictions.Load(),
	}
}

// noteWrite records one outbound frame of n payload bytes plus framing
// overhead.
func (c *counters) noteWrite(n int) {
	c.framesOut.Add(1)
	c.bytesOut.Add(uint64(n))
}

// noteRead records one inbound frame of n payload bytes plus framing
// overhead.
func (c *counters) noteRead(n int) {
	c.framesIn.Add(1)
	c.bytesIn.Add(uint64(n))
}
