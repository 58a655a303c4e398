package fleet

import (
	"fmt"

	"peersampling/internal/config"
	"peersampling/internal/daemon"
	"peersampling/internal/metrics"
	"peersampling/internal/transport"
)

// inproc runs every member as a daemon.Manager in this process: the same
// daemon a forked psnode runs, built from the same config, minus the
// process boundary.
type inproc struct{}

func (inproc) launch(name string, nc config.Config) (member, error) {
	mgr, err := daemon.New(nc, daemon.Options{})
	if err != nil {
		return nil, fmt.Errorf("fleet: member %s: %w", name, err)
	}
	if err := mgr.Start(); err != nil {
		_ = mgr.Close()
		return nil, fmt.Errorf("fleet: member %s start: %w", name, err)
	}
	return &inprocMember{name: name, mgr: mgr, gateway: mgr.Info().GatewayAddr}, nil
}

func (inproc) close() error { return nil }

type inprocMember struct {
	liveness
	name    string
	gateway string // the gateway's bound address; empty without one
	mgr     *daemon.Manager
}

func (m *inprocMember) Name() string        { return m.name }
func (m *inprocMember) Addr() string        { return m.mgr.Addr() }
func (m *inprocMember) GatewayAddr() string { return m.gateway }

// Snapshot and View call the manager directly. A closed daemon's node
// stays readable, so they work on dead members too — the inproc
// driver's one fidelity advantage.
func (m *inprocMember) Snapshot() (metrics.NodeSnapshot, error) {
	return metrics.SnapshotSource(m.name, m.mgr.Source()), nil
}

func (m *inprocMember) View() ([]transport.Descriptor, error) {
	return m.mgr.Node().View(), nil
}

func (m *inprocMember) setFaultRules(rules []transport.FaultRule) error {
	m.mgr.SetFaultRules(rules)
	return nil
}

func (m *inprocMember) register(coll *metrics.Collector) { coll.Register(m.name, m.mgr.Source()) }

func (m *inprocMember) kill() error {
	if !m.markDead() {
		return nil
	}
	return m.mgr.Close()
}

func (m *inprocMember) stop() error { return m.kill() }
