package daemon

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"peersampling/internal/gateway"
	"peersampling/internal/loop"
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
// file. Its loop reads metrics.report_interval each round, so a reload
// applies from the next round, and it logs write errors instead of
// stopping, which is why it does not use the Dumper's own Start.
type dumperPlugin struct {
	statusHolder
	m      *Manager
	path   string
	dumper *metrics.Dumper
	rounds *loop.Loop
}

func (p *dumperPlugin) Name() string { return "metrics-dumper" }

func (p *dumperPlugin) Start() error {
	d, err := metrics.NewFileDumper(p.m.coll, p.path)
	if err != nil {
		p.set("failed", err.Error())
		return err
	}
	p.dumper = d
	p.rounds = loop.Every(p.m.reportInterval, func() bool {
		if err := p.dumper.Dump(); err != nil {
			p.m.logf("metrics: dump: %v", err)
		}
		return true
	})
	p.set("running", p.path)
	p.m.logf("metrics: dumping to %s every %v", p.path, p.m.reportInterval())
	return nil
}

func (p *dumperPlugin) Stop() error {
	if p.dumper == nil {
		return nil
	}
	p.rounds.Stop()
	// One final round so short runs are never empty.
	err := p.dumper.Dump()
	if cerr := p.dumper.Close(); err == nil {
		err = cerr
	}
	p.set("stopped", "")
	return err
}

// reporterPlugin logs the periodic report: the node's view, then one
// line per registered source holding the same long-form rows the dump
// file gets. Like the dumper, its loop reads metrics.report_interval
// each round.
type reporterPlugin struct {
	statusHolder
	m      *Manager
	rounds *loop.Loop
}

func (p *reporterPlugin) Name() string { return "reporter" }

func (p *reporterPlugin) Start() error {
	p.rounds = loop.Every(p.m.reportInterval, func() bool { p.report(); return true })
	p.set("running", "")
	return nil
}

func (p *reporterPlugin) Stop() error {
	if p.rounds != nil {
		p.rounds.Stop()
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
		rows := s.Rows()
		parts := make([]string, len(rows))
		for i, r := range rows {
			parts[i] = r.Metric + "=" + strconv.FormatFloat(r.Value, 'f', -1, 64)
		}
		p.m.logf("%s: %s", s.Node, strings.Join(parts, " "))
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
	p.m.wl.Start()
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
	cfg := p.m.cfgSnapshot().Gateway
	gw, err := gateway.New(cfg.Addr, p.m.node, cfg.Config)
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
