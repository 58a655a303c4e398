package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"peersampling/internal/config"
	"peersampling/internal/daemon"
	"peersampling/internal/metrics"
	"peersampling/internal/transport"
)

// subprocess forks one psnode process per member and drives each
// through its control agent. Killing a member is a real SIGKILL: kernel
// connection state, file descriptors and timers die with the process,
// which is exactly the failure the paper's churn model abstracts.
type subprocess struct {
	psnode  string
	timeout time.Duration
	dir     string
	ownDir  bool // close removes dir only when the driver created it
}

func newSubprocess(cfg Config) (*cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Psnode == "" {
		return nil, errors.New("fleet: subprocess driver needs Config.Psnode (path to the psnode binary)")
	}
	if _, err := exec.LookPath(cfg.Psnode); err != nil {
		return nil, fmt.Errorf("fleet: psnode binary: %w", err)
	}
	d := &subprocess{psnode: cfg.Psnode, timeout: cfg.SpawnTimeout, dir: cfg.Dir}
	if d.dir == "" {
		dir, err := os.MkdirTemp("", "psfleet-*")
		if err != nil {
			return nil, fmt.Errorf("fleet: scratch dir: %w", err)
		}
		d.dir, d.ownDir = dir, true
	}
	return &cluster{cfg: cfg, drv: d}, nil
}

func (d *subprocess) close() error {
	if d.ownDir {
		return os.RemoveAll(d.dir)
	}
	return nil
}

// launch provisions the member like a real deployment: the full node
// configuration, plus the control agent and ready file this driver
// needs, is written into the member's directory and psnode boots from
// the file alone, so the exact config every member ran with survives
// next to its log for post-mortems.
func (d *subprocess) launch(name string, nc config.Config) (member, error) {
	memberDir := filepath.Join(d.dir, name)
	if err := os.MkdirAll(memberDir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: member %s: %w", name, err)
	}
	readyPath := filepath.Join(memberDir, "ready.json")
	_ = os.Remove(readyPath) // a respawn under a recycled name must not read the old file
	logf, err := os.Create(filepath.Join(memberDir, "psnode.log"))
	if err != nil {
		return nil, fmt.Errorf("fleet: member %s: %w", name, err)
	}

	nc.Control.Addr = "127.0.0.1:0"
	nc.Control.ReadyFile = readyPath
	cfgPath := filepath.Join(memberDir, "config.json")
	if err := config.WriteFile(cfgPath, nc); err != nil {
		logf.Close()
		return nil, fmt.Errorf("fleet: member %s: %w", name, err)
	}
	cmd := exec.Command(d.psnode, "-config", cfgPath)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("fleet: member %s: %w", name, err)
	}
	m := &subprocessMember{name: name, cmd: cmd, logf: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(m.exited)
	}()

	// Address discovery: wait for the daemon's atomically-written ready
	// file instead of parsing its log or racing for ports. The poll backs
	// off exponentially (1ms doubling to a 100ms cap): a healthy member is
	// caught within milliseconds while a slow one costs ten polls a
	// second, not a hundred.
	start := time.Now()
	deadline := start.Add(d.timeout)
	backoff := time.Millisecond
	for {
		info, err := daemon.ReadReady(readyPath)
		if err == nil {
			m.info = info
			break
		}
		select {
		case <-m.exited:
			err := fmt.Errorf("fleet: member %s exited before becoming ready (waited %v); log tail:\n%s",
				name, time.Since(start).Round(time.Millisecond), tailFile(logf.Name(), 2048))
			logf.Close()
			return nil, err
		default:
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			<-m.exited
			logf.Close()
			return nil, fmt.Errorf("fleet: member %s not ready after %v (timeout %v); log tail:\n%s",
				name, time.Since(start).Round(time.Millisecond), d.timeout, tailFile(logf.Name(), 2048))
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 100*time.Millisecond {
			backoff = 100 * time.Millisecond
		}
	}
	if m.info.ControlAddr == "" {
		_ = m.kill()
		return nil, fmt.Errorf("fleet: member %s came up without a control agent", name)
	}
	m.client = newAgentClient(m.info.ControlAddr)
	return m, nil
}

type subprocessMember struct {
	liveness
	name   string
	info   daemon.AgentInfo
	client *agentClient
	cmd    *exec.Cmd
	logf   *os.File
	exited chan struct{} // closed when cmd.Wait returns
}

func (m *subprocessMember) Name() string { return m.name }
func (m *subprocessMember) Addr() string { return m.info.Addr }

// GatewayAddr comes from the member's ready file: the daemon reports the
// bound gateway address alongside its control address.
func (m *subprocessMember) GatewayAddr() string { return m.info.GatewayAddr }

func (m *subprocessMember) Snapshot() (metrics.NodeSnapshot, error) {
	s, err := m.client.snapshot()
	if err != nil {
		return metrics.NodeSnapshot{}, err
	}
	s.Node = m.name
	return s, nil
}

func (m *subprocessMember) View() ([]transport.Descriptor, error) {
	return m.client.view()
}

func (m *subprocessMember) setFaultRules(rules []transport.FaultRule) error {
	return m.client.setFaults(rules)
}

// register lands the member on the collector as a remote poller: it
// shows up in the same exposition and long-form dumps as in-process
// nodes, and when it dies the collector serves its last snapshot marked
// stale.
func (m *subprocessMember) register(coll *metrics.Collector) {
	coll.RegisterPoller(m.name, m.client.remote)
}

// kill SIGKILLs the process and reaps it.
func (m *subprocessMember) kill() error {
	if !m.markDead() {
		return nil
	}
	err := m.cmd.Process.Kill()
	<-m.exited
	m.logf.Close()
	if err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("fleet: kill %s: %w", m.name, err)
	}
	return nil
}

// stop asks the agent for a graceful shutdown and falls back to SIGKILL
// when the process does not exit within three seconds.
func (m *subprocessMember) stop() error {
	if !m.markDead() {
		return nil
	}
	if m.client.stopNode() == nil {
		select {
		case <-m.exited:
			m.logf.Close()
			return nil
		case <-time.After(3 * time.Second):
		}
	}
	_ = m.cmd.Process.Kill()
	<-m.exited
	m.logf.Close()
	return nil
}

// tailFile returns up to n trailing bytes of the file at path, for spawn
// failure diagnostics.
func tailFile(path string, n int64) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "(no log: " + err.Error() + ")"
	}
	if int64(len(raw)) > n {
		raw = raw[int64(len(raw))-n:]
	}
	return string(raw)
}

// agentClient drives one member's control agent from the parent side.
// Snapshot scraping is delegated to metrics.Remote — the same code path
// a collector uses — so the fetch contract (timeout, body cap, error
// shape) lives in one place.
type agentClient struct {
	base   string // "http://host:port"
	hc     *http.Client
	remote *metrics.Remote
}

func newAgentClient(controlAddr string) *agentClient {
	base := "http://" + controlAddr
	return &agentClient{
		base:   base,
		hc:     &http.Client{Timeout: 2 * time.Second},
		remote: metrics.NewRemote(base + "/snapshot"),
	}
}

func (c *agentClient) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.CopyN(io.Discard, resp.Body, 4096)
		return fmt.Errorf("fleet: agent %s%s: status %d", c.base, path, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(v)
}

func (c *agentClient) health() (daemon.AgentInfo, error) {
	var info daemon.AgentInfo
	err := c.getJSON("/healthz", &info)
	return info, err
}

func (c *agentClient) snapshot() (metrics.NodeSnapshot, error) {
	return c.remote.Poll()
}

func (c *agentClient) view() ([]transport.Descriptor, error) {
	var entries []struct {
		Addr string `json:"addr"`
		Hop  int32  `json:"hop"`
	}
	if err := c.getJSON("/view", &entries); err != nil {
		return nil, err
	}
	view := make([]transport.Descriptor, len(entries))
	for i, e := range entries {
		view[i] = transport.Descriptor{Addr: e.Addr, Hop: e.Hop}
	}
	return view, nil
}

func (c *agentClient) setFaults(rules []transport.FaultRule) error {
	if rules == nil {
		rules = []transport.FaultRule{} // encode "heal" as [], not null
	}
	raw, err := json.Marshal(rules)
	if err != nil {
		return fmt.Errorf("fleet: fault rules: %w", err)
	}
	resp, err := c.hc.Post(c.base+"/faults", "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.CopyN(io.Discard, resp.Body, 4096)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: agent %s/faults: status %d", c.base, resp.StatusCode)
	}
	return nil
}

func (c *agentClient) stopNode() error {
	resp, err := c.hc.Post(c.base+"/stop", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.CopyN(io.Discard, resp.Body, 4096)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: agent %s/stop: status %d", c.base, resp.StatusCode)
	}
	return nil
}
