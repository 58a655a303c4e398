package daemon

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"peersampling/internal/gateway"
	"peersampling/internal/metrics"
)

// Status is one plugin's lifecycle state for the aggregated /healthz
// report.
type Status struct {
	// State is "stopped", "running" or "failed".
	State string `json:"state"`
	// Detail carries the listen address while running, or the failure.
	Detail string `json:"detail,omitempty"`
}

// Plugin is one unit of the daemon's service surface. Start and Stop are
// called by the Manager only (Start before the ready file is written,
// Stop in reverse order on shutdown); Status may be called concurrently
// at any time.
type Plugin interface {
	Name() string
	Start() error
	Stop() error
	Status() Status
}

// statusHolder is the concurrency-safe Status every plugin embeds.
type statusHolder struct {
	mu sync.Mutex
	s  Status
}

func (h *statusHolder) set(state, detail string) {
	h.mu.Lock()
	h.s = Status{State: state, Detail: detail}
	h.mu.Unlock()
}

func (h *statusHolder) Status() Status {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.s.State == "" {
		return Status{State: "stopped"}
	}
	return h.s
}

// pacer runs fn every interval on its own goroutine. The interval is
// swappable live (SetInterval), taking effect from the next round — the
// mechanism behind hot-reloading metrics.report_interval.
type pacer struct {
	mu       sync.Mutex
	interval time.Duration
	fn       func()
	stop     chan struct{}
	done     chan struct{}
}

func newPacer(interval time.Duration, fn func()) *pacer {
	return &pacer{interval: interval, fn: fn}
}

func (p *pacer) Start() {
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		for {
			p.mu.Lock()
			interval := p.interval
			p.mu.Unlock()
			timer := time.NewTimer(interval)
			select {
			case <-p.stop:
				timer.Stop()
				return
			case <-timer.C:
				p.fn()
			}
		}
	}()
}

func (p *pacer) Stop() {
	if p.stop == nil {
		return
	}
	close(p.stop)
	<-p.done
	p.stop = nil
}

func (p *pacer) SetInterval(interval time.Duration) {
	p.mu.Lock()
	p.interval = interval
	p.mu.Unlock()
}

func (p *pacer) Interval() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.interval
}

// metricsServerPlugin serves the collector's Prometheus exposition.
type metricsServerPlugin struct {
	statusHolder
	m    *Manager
	addr string
	srv  *metrics.Server
}

func (p *metricsServerPlugin) Name() string { return "metrics-server" }

func (p *metricsServerPlugin) Start() error {
	srv, err := metrics.NewServer(p.m.coll, p.addr)
	if err != nil {
		p.set("failed", err.Error())
		return err
	}
	p.srv = srv
	p.set("running", srv.Addr())
	p.m.logf("metrics: serving http://%s/metrics", srv.Addr())
	return nil
}

func (p *metricsServerPlugin) Stop() error {
	if p.srv == nil {
		return nil
	}
	err := p.srv.Close()
	p.set("stopped", "")
	return err
}

// dumperPlugin appends periodic snapshot rounds to the configured dump
// file, paced by its own hot-swappable interval (the shared Dumper's
// Start/Stop ticker is single-shot, so the plugin owns the pacing).
type dumperPlugin struct {
	statusHolder
	m      *Manager
	path   string
	dumper *metrics.Dumper
	pace   *pacer
}

func (p *dumperPlugin) Name() string { return "metrics-dumper" }

func (p *dumperPlugin) Start() error {
	d, err := metrics.NewFileDumper(p.m.coll, p.path)
	if err != nil {
		p.set("failed", err.Error())
		return err
	}
	p.dumper = d
	p.pace = newPacer(p.m.reportInterval(), func() {
		if err := p.dumper.Dump(); err != nil {
			p.m.logf("metrics: dump: %v", err)
		}
	})
	p.pace.Start()
	p.set("running", p.path)
	p.m.logf("metrics: dumping to %s every %v", p.path, p.pace.Interval())
	return nil
}

func (p *dumperPlugin) Stop() error {
	if p.dumper == nil {
		return nil
	}
	p.pace.Stop()
	// One final round so short runs are never empty.
	err := p.dumper.Dump()
	if cerr := p.dumper.Close(); err == nil {
		err = cerr
	}
	p.set("stopped", "")
	return err
}

// reporterPlugin logs the periodic view/stats report — the same
// snapshots the /metrics endpoint and dump file serve.
type reporterPlugin struct {
	statusHolder
	m    *Manager
	pace *pacer
}

func (p *reporterPlugin) Name() string { return "reporter" }

func (p *reporterPlugin) Start() error {
	p.pace = newPacer(p.m.reportInterval(), p.report)
	p.pace.Start()
	p.set("running", "")
	return nil
}

func (p *reporterPlugin) Stop() error {
	if p.pace != nil {
		p.pace.Stop()
	}
	p.set("stopped", "")
	return nil
}

func (p *reporterPlugin) report() {
	node := p.m.node
	view := node.View()
	entries := make([]string, len(view))
	for i, d := range view {
		entries[i] = fmt.Sprintf("%s@%d", d.Addr, d.Hop)
	}
	p.m.logf("view(%d): %s", len(view), strings.Join(entries, " "))
	for _, s := range p.m.coll.Snapshot() {
		if s.Gateway != nil {
			g := s.Gateway
			p.m.logf("gateway: requests=%d served=%d limited=%d unavailable=%d cache=%d age=%.1fs",
				g.Requests, g.PeersServed, g.RateLimited, g.Unavailable, g.CacheSize, g.CacheAgeSeconds)
			continue
		}
		p.m.logf("stats: cycles=%d exchanges=%d failures=%d served=%d view=%d hops=[%d %.1f %d]",
			s.Cycles, s.Exchanges, s.Failures, s.Served, s.ViewSize, s.HopMin, s.HopMean, s.HopMax)
		if s.App != nil {
			p.m.logf("workload(%s): rounds=%d sent=%d received=%d failures=%d infected=%g value=%g",
				s.App.Workload, s.App.Rounds, s.App.Sent, s.App.Received, s.App.Failures,
				s.App.Infected, s.App.Value)
		}
		if s.Wire != nil {
			parts := make([]string, 0, 9)
			for _, c := range s.Wire.Named() {
				parts = append(parts, fmt.Sprintf("%s=%d", c.Name, c.Value))
			}
			p.m.logf("wire: %s", strings.Join(parts, " "))
		}
		if s.Latency != nil && s.Latency.Count > 0 {
			p.m.logf("latency: p50=%.2fms p99=%.2fms over %d exchanges",
				s.Latency.Quantile(0.50)*1000, s.Latency.Quantile(0.99)*1000, s.Latency.Count)
		}
	}
}

// agentPlugin serves the fleet control surface (GET /healthz, /snapshot,
// /view; POST /stop, /faults) with the manager's aggregated status on
// /healthz.
type agentPlugin struct {
	statusHolder
	m     *Manager
	addr  string
	agent *Agent
}

func (p *agentPlugin) Name() string { return "control-agent" }

func (p *agentPlugin) Start() error {
	a, err := NewAgent(p.addr, p.m)
	if err != nil {
		p.set("failed", err.Error())
		return err
	}
	p.agent = a
	p.set("running", a.Addr())
	p.m.logf("control agent on http://%s (healthz, snapshot, view, stop, faults)", a.Addr())
	return nil
}

func (p *agentPlugin) Stop() error {
	if p.agent == nil {
		return nil
	}
	err := p.agent.Close()
	p.set("stopped", "")
	return err
}

// workloadPlugin drives the configured gossip application engine's
// rounds. The engine itself was built and attached in New — the
// transport handler must be installed before the listener serves peers —
// so the plugin only owns the round loop's lifecycle.
type workloadPlugin struct {
	statusHolder
	m *Manager
}

func (p *workloadPlugin) Name() string { return "workload" }

func (p *workloadPlugin) Start() error {
	cfg := p.m.cfgSnapshot().Workload
	p.m.wl.Runner.Start()
	p.set("running", cfg.Kind)
	p.m.logf("workload: %s engine ticking", cfg.Kind)
	return nil
}

func (p *workloadPlugin) Stop() error {
	p.m.wl.Close()
	p.set("stopped", "")
	return nil
}

// gatewayPlugin serves the light-client sampling API off the node's
// GetPeer, registered on the collector so its counters flow through the
// same pipeline as the node's.
type gatewayPlugin struct {
	statusHolder
	m   *Manager
	gw  *gateway.Gateway
	reg bool // the collector has no Unregister; register once across restarts
}

func (p *gatewayPlugin) Name() string { return "gateway" }

func (p *gatewayPlugin) Start() error {
	cfg := p.m.gatewayConfig()
	gw, err := gateway.New(p.m.cfgSnapshot().Gateway.Addr, p.m.node, cfg)
	if err != nil {
		p.set("failed", err.Error())
		return err
	}
	gw.SetHealth(func() any { return p.m.StatusReport() })
	p.gw = gw
	if !p.reg {
		p.m.coll.RegisterFunc("gateway", gw.Snapshot)
		p.reg = true
	}
	p.set("running", gw.Addr())
	p.m.logf("gateway on http://%s (GET /v1/sample?n=K, /healthz)", gw.Addr())
	return nil
}

func (p *gatewayPlugin) Stop() error {
	if p.gw == nil {
		return nil
	}
	err := p.gw.Close()
	p.set("stopped", "")
	return err
}
