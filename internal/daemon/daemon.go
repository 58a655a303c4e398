package daemon

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"peersampling/internal/config"
	"peersampling/internal/gateway"
	"peersampling/internal/metrics"
	"peersampling/internal/runtime"
	"peersampling/internal/transport"
	"peersampling/internal/workload"
)

// Options tunes a Manager beyond its Config.
type Options struct {
	// Logf receives the daemon's operational log lines; nil discards
	// them (tests) — cmd/psnode passes log.Printf.
	Logf func(format string, args ...any)
}

// Manager owns one sampling node and the plugins around it: construct
// with New, bring everything up with Start, reconfigure live with
// Reload, and tear down with Close. The manager is the single writer of
// the daemon's lifecycle; Status, StatusReport and StopRequests are safe
// to call concurrently with it.
type Manager struct {
	node *runtime.Node
	coll *metrics.Collector
	logf func(format string, args ...any)
	// src is what the collector and control agent observe: the node
	// itself, or a workload.NodeSource pairing it with its engine.
	src metrics.Source
	// wl is the attached workload engine's lifecycle; nil without one.
	wl *workload.Attachment
	// faults shapes every exchange the node initiates; SetFaultRules
	// replaces its rules.
	faults *transport.FaultSet

	mu      sync.Mutex
	cfg     config.Config
	plugins []Plugin
	started bool
	closed  bool

	stopRequests chan struct{}
	stopOnce     sync.Once
}

// New builds the node and plugin set described by cfg. Nothing listens
// yet except the gossip transport itself (the node's identity is its
// bound address, so the transport must exist to know it); Start brings
// the plugins up. cfg must already be validated — LoadFile and Parse
// guarantee that — but New re-validates as a seatbelt for hand-built
// configs.
func New(cfg config.Config, opts Options) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	proto, err := cfg.Protocol()
	if err != nil {
		return nil, err
	}
	factory, err := transport.NewFactoryLimits(cfg.Transport.Backend, cfg.Node.Listen, cfg.Transport.Limits())
	if err != nil {
		return nil, err
	}
	m := &Manager{
		coll:         metrics.New(),
		logf:         logf,
		cfg:          cfg,
		faults:       transport.NewFaultSet(rand.Uint64()),
		stopRequests: make(chan struct{}),
	}
	node, err := runtime.New(runtime.Config{
		Protocol: proto,
		ViewSize: cfg.Node.ViewSize,
		Period:   cfg.Node.Period,
		Diverse:  cfg.Node.Diverse,
		OnError:  func(err error) { logf("exchange failed: %v", err) },
		Faults:   m.faults,
	}, factory)
	if err != nil {
		return nil, err
	}
	m.node = node
	m.src = node
	if cfg.WorkloadEnabled() {
		engine, err := workload.New(cfg.Workload)
		if err != nil {
			_ = node.Close()
			return nil, err
		}
		period := cfg.Workload.Period
		if period <= 0 {
			period = cfg.Node.Period
		}
		att, err := workload.Attach(node, engine, period)
		if err != nil {
			_ = node.Close()
			return nil, err
		}
		m.wl = att
		m.src = workload.NewNodeSource(node, engine)
	}
	m.coll.Register("", m.src) // registered under the node's own address

	if m.wl != nil {
		m.plugins = append(m.plugins, &workloadPlugin{m: m})
	}
	if cfg.Metrics.Addr != "" {
		m.plugins = append(m.plugins, &metricsServerPlugin{m: m, addr: cfg.Metrics.Addr})
	}
	if cfg.Metrics.Dump != "" {
		m.plugins = append(m.plugins, &dumperPlugin{m: m, path: cfg.Metrics.Dump})
	}
	m.plugins = append(m.plugins, &reporterPlugin{m: m})
	if cfg.Control.Addr != "" {
		m.plugins = append(m.plugins, &agentPlugin{m: m, addr: cfg.Control.Addr})
	}
	if cfg.GatewayEnabled() {
		m.plugins = append(m.plugins, &gatewayPlugin{m: m})
	}
	return m, nil
}

// Node exposes the managed sampling node (the service API: Init,
// GetPeer, View).
func (m *Manager) Node() *runtime.Node { return m.node }

// Addr returns the node's gossip address.
func (m *Manager) Addr() string { return m.node.Addr() }

// Collector exposes the manager's metrics collector, for embedding the
// daemon in a larger observability setup.
func (m *Manager) Collector() *metrics.Collector { return m.coll }

// Source is what the manager's collector and control agent observe: the
// node, paired with its workload engine's counters when one runs.
func (m *Manager) Source() metrics.Source { return m.src }

// SetFaultRules replaces the per-link fault rules every exchange the
// node initiates consults (see transport.FaultRule); nil heals every
// fault. The control agent's POST /faults lands here.
func (m *Manager) SetFaultRules(rules []transport.FaultRule) {
	m.faults.SetRules(rules)
	m.logf("faults: %d rules installed", len(rules))
}

// Start bootstraps the node from the configured contacts, starts
// gossiping, brings every plugin up in order, and finally writes the
// ready file (when configured) — its existence promises every listener
// is bound. A plugin failing to start stops the already-started ones
// and returns the failure.
func (m *Manager) Start() error {
	m.mu.Lock()
	if m.started || m.closed {
		m.mu.Unlock()
		return errors.New("daemon: already started")
	}
	m.started = true
	cfg := m.cfg
	plugins := m.plugins
	m.mu.Unlock()

	if len(cfg.Node.Contacts) > 0 {
		if err := m.node.Init(cfg.Node.Contacts); err != nil {
			return err
		}
	}
	if err := m.node.Start(); err != nil {
		return err
	}
	m.logf("listening on %s (%s), protocol %s, c=%d, period %v",
		m.node.Addr(), cfg.Transport.Backend, cfg.Node.Protocol, cfg.Node.ViewSize, cfg.Node.Period)

	for i, p := range plugins {
		if err := p.Start(); err != nil {
			for j := i - 1; j >= 0; j-- {
				_ = plugins[j].Stop()
			}
			return fmt.Errorf("daemon: %s: %w", p.Name(), err)
		}
	}

	if cfg.Control.ReadyFile != "" {
		if err := WriteReady(cfg.Control.ReadyFile, m.Info()); err != nil {
			return err
		}
	}
	return nil
}

// Info is the ready-file payload: the agent's identity when the control
// plugin runs, a bare one otherwise, plus the gateway's bound address so
// a parent (or load harness) can find the sampling API without parsing
// logs.
func (m *Manager) Info() AgentInfo {
	info := AgentInfo{
		PID:             os.Getpid(),
		Addr:            m.node.Addr(),
		StartUnixMillis: time.Now().UnixMilli(),
	}
	for _, p := range m.pluginsSnapshot() {
		switch p := p.(type) {
		case *agentPlugin:
			if p.agent != nil {
				info = p.agent.Info()
			}
		case *gatewayPlugin:
			if p.gw != nil {
				info.GatewayAddr = p.gw.Addr()
			}
		}
	}
	return info
}

// Reload diffs next against the running config and applies the hot
// fields live: transport hardening limits onto the listener, report
// pacing onto the dumper and reporter, tuning onto the gateway, and the
// new contact list into the view. Restart-classified changes are NOT
// applied — they come back in the diff for the caller to report. The
// running config becomes config.MergeHot(current, next), so a second
// identical Reload is a no-op.
func (m *Manager) Reload(next config.Config) (config.ReloadDiff, error) {
	if err := next.Validate(); err != nil {
		return config.ReloadDiff{}, err
	}
	m.mu.Lock()
	diff := config.Diff(m.cfg, next)
	if diff.Empty() {
		m.mu.Unlock()
		return diff, nil
	}
	m.cfg = config.MergeHot(m.cfg, next)
	merged := m.cfg
	plugins := m.plugins
	m.mu.Unlock()

	var errs []error
	for _, path := range diff.Hot {
		switch path {
		case "node.contacts":
			if len(merged.Node.Contacts) > 0 {
				if err := m.node.Init(merged.Node.Contacts); err != nil {
					errs = append(errs, fmt.Errorf("contacts: %w", err))
				}
			}
		case "transport.max_conns", "transport.keepalive", "transport.push_only_keepalive", "transport.first_frame_timeout":
			// One SetTransportLimits covers all four; apply on the first.
			if path == firstLimitsPath(diff.Hot) {
				if _, err := m.node.SetTransportLimits(merged.Transport.Limits()); err != nil {
					errs = append(errs, fmt.Errorf("transport limits: %w", err))
				}
			}
		case "metrics.report_interval":
			for _, p := range plugins {
				switch p := p.(type) {
				case *dumperPlugin:
					p.pace.SetInterval(merged.Metrics.ReportInterval)
				case *reporterPlugin:
					p.pace.SetInterval(merged.Metrics.ReportInterval)
				}
			}
		case "gateway.batch_size", "gateway.refresh", "gateway.rate_rps", "gateway.burst", "gateway.trust_proxy_header":
			if path == firstGatewayPath(diff.Hot) {
				for _, p := range plugins {
					if gp, ok := p.(*gatewayPlugin); ok && gp.gw != nil {
						if err := gp.gw.SetTuning(m.gatewayConfig()); err != nil {
							errs = append(errs, fmt.Errorf("gateway tuning: %w", err))
						}
					}
				}
			}
		}
		m.logf("reload: applied %s", path)
	}
	for _, path := range diff.Restart {
		m.logf("reload: %s requires a restart; keeping the running value", path)
	}
	return diff, errors.Join(errs...)
}

// firstLimitsPath returns the first transport-limits path in hot, so the
// single SetTransportLimits call is made exactly once per reload.
func firstLimitsPath(hot []string) string {
	for _, p := range hot {
		switch p {
		case "transport.max_conns", "transport.keepalive", "transport.push_only_keepalive", "transport.first_frame_timeout":
			return p
		}
	}
	return ""
}

// firstGatewayPath is firstLimitsPath for the gateway tuning fields.
func firstGatewayPath(hot []string) string {
	for _, p := range hot {
		switch p {
		case "gateway.batch_size", "gateway.refresh", "gateway.rate_rps", "gateway.burst", "gateway.trust_proxy_header":
			return p
		}
	}
	return ""
}

// Config returns the config the daemon is currently running — after
// reloads, the accumulated MergeHot result.
func (m *Manager) Config() config.Config {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg
}

// cfgSnapshot, reportInterval and gatewayConfig give plugins a coherent
// read of the current config.
func (m *Manager) cfgSnapshot() config.Config { return m.Config() }

func (m *Manager) reportInterval() time.Duration { return m.Config().Metrics.ReportInterval }

func (m *Manager) gatewayConfig() gateway.Config {
	gw := m.Config().Gateway
	return gateway.Config{
		BatchSize:        gw.BatchSize,
		Refresh:          gw.Refresh,
		RateRPS:          gw.RateRPS,
		Burst:            gw.Burst,
		TrustProxyHeader: gw.TrustProxyHeader,
	}
}

func (m *Manager) pluginsSnapshot() []Plugin {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.plugins
}

// Report is the aggregated daemon status: the /healthz payload of the
// control agent and the gateway.
type Report struct {
	// State is "running" once Start succeeded, "stopped" after Close.
	State string `json:"state"`
	// Addr is the node's gossip address.
	Addr string `json:"addr"`
	// Cycles is the node's active cycle count — a cheap liveness signal.
	Cycles uint64 `json:"cycles"`
	// FaultRules counts the fault-injection rules currently installed on
	// this daemon (see SetFaultRules): non-zero means a chaos plan is
	// shaping this node's links right now.
	FaultRules int `json:"fault_rules"`
	// Plugins maps plugin name to its lifecycle status.
	Plugins map[string]Status `json:"plugins"`
}

// StatusReport aggregates every plugin's status with the node's own
// state.
func (m *Manager) StatusReport() Report {
	m.mu.Lock()
	state := "stopped"
	if m.started && !m.closed {
		state = "running"
	}
	plugins := m.plugins
	m.mu.Unlock()
	cycles, _, _, _ := m.node.Stats()
	r := Report{
		State:      state,
		Addr:       m.node.Addr(),
		Cycles:     cycles,
		FaultRules: m.faults.ActiveRules(),
		Plugins:    make(map[string]Status, len(plugins)),
	}
	for _, p := range plugins {
		r.Plugins[p.Name()] = p.Status()
	}
	return r
}

// Run owns the daemon's whole foreground lifecycle: Start, then block
// until SIGINT/SIGTERM or a control-agent stop request, then Close. A
// SIGHUP invokes reload — a callback returning the freshly loaded
// desired config (cmd/psnode re-reads its -config file and re-applies
// the command-line overrides) — and feeds the result to Reload; with a
// nil reload callback SIGHUP is a logged no-op.
func (m *Manager) Run(reload func() (config.Config, error)) error {
	// The handler is installed before boot so a SIGHUP delivered during a
	// slow Start (or a supervisor's eager reload) never kills the process.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sigs)
	if err := m.Start(); err != nil {
		_ = m.Close()
		return err
	}
	for {
		select {
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				m.reloadFrom(reload)
				continue
			}
			m.logf("shutting down (%v)", sig)
			return m.Close()
		case <-m.StopRequests():
			m.logf("shutting down (stop requested)")
			return m.Close()
		}
	}
}

// reloadFrom runs one SIGHUP-triggered reload round. Errors keep the
// running config: a daemon must never die because an operator wrote a
// broken file next to it.
func (m *Manager) reloadFrom(reload func() (config.Config, error)) {
	if reload == nil {
		m.logf("reload: started without a config file; ignoring SIGHUP")
		return
	}
	next, err := reload()
	if err != nil {
		m.logf("reload: %v; keeping the running config", err)
		return
	}
	diff, err := m.Reload(next)
	if err != nil {
		m.logf("reload: %v", err)
		return
	}
	if diff.Empty() {
		m.logf("reload: no changes")
	}
}

// RequestStop asks the daemon's owner to shut down: it unblocks
// StopRequests once, idempotently. The control agent's POST /stop lands
// here.
func (m *Manager) RequestStop() {
	m.stopOnce.Do(func() { close(m.stopRequests) })
}

// StopRequests is closed when something inside the daemon (the control
// agent) asked for shutdown; the owner should then call Close.
func (m *Manager) StopRequests() <-chan struct{} { return m.stopRequests }

// Close stops the plugins in reverse start order, then the node. Close
// is idempotent; the first error wins but every component is stopped.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	plugins := m.plugins
	m.mu.Unlock()

	var first error
	for i := len(plugins) - 1; i >= 0; i-- {
		if err := plugins[i].Stop(); err != nil && first == nil {
			first = fmt.Errorf("daemon: %s: %w", plugins[i].Name(), err)
		}
	}
	if err := m.node.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
