package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"peersampling/internal/metrics"
	"peersampling/internal/transport"
)

// AgentInfo identifies a running node to its parent: the payload of the
// agent's /healthz endpoint and of the ready file a psnode writes once
// its listeners are bound.
type AgentInfo struct {
	PID int `json:"pid"`
	// Addr is the gossip address peers dial.
	Addr string `json:"addr"`
	// ControlAddr is the agent's own HTTP listen address; empty when the
	// daemon runs without an agent.
	ControlAddr string `json:"control_addr"`
	// GatewayAddr is the sampling gateway's HTTP listen address; empty
	// when the daemon runs without a gateway.
	GatewayAddr string `json:"gateway_addr,omitempty"`
	// StartUnixMillis is when the daemon came up.
	StartUnixMillis int64 `json:"start_unix_ms"`
}

// viewEntry is the wire shape of one /view descriptor. core.Descriptor
// carries no JSON tags, and the agent contract should not change if it
// ever grows some.
type viewEntry struct {
	Addr string `json:"addr"`
	Hop  int32  `json:"hop"`
}

// Agent serves a daemon's control surface over HTTP: health, view dump,
// counter snapshot, fault rules and graceful stop (the contract in the
// package doc). The control-agent plugin starts one when the config sets
// control.addr; the fleet's subprocess driver is its main client.
type Agent struct {
	m    *Manager
	info AgentInfo
	srv  *http.Server
}

// NewAgent serves m's control surface on addr ("127.0.0.1:0" picks an
// ephemeral port, reported by Addr). /snapshot observes the manager's
// node, with its workload engine's counters when one runs; POST /stop
// lands on m.RequestStop and POST /faults on m.SetFaultRules.
func NewAgent(addr string, m *Manager) (*Agent, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("daemon: agent listen %s: %w", addr, err)
	}
	a := &Agent{
		m: m,
		info: AgentInfo{
			PID:             os.Getpid(),
			Addr:            m.Addr(),
			ControlAddr:     ln.Addr().String(),
			StartUnixMillis: time.Now().UnixMilli(),
		},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.HandleFunc("/snapshot", a.handleSnapshot)
	mux.HandleFunc("/view", a.handleView)
	mux.HandleFunc("/stop", a.handleStop)
	mux.HandleFunc("/faults", a.handleFaults)
	// Same tight phase bounds as the metrics server: a control port must
	// not reopen the slowloris class the gossip listener's Limits close.
	a.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      15 * time.Second,
		IdleTimeout:       time.Minute,
	}
	go func() { _ = a.srv.Serve(ln) }()
	return a, nil
}

// Addr returns the agent's bound HTTP address.
func (a *Agent) Addr() string { return a.info.ControlAddr }

// Info returns the identity the agent advertises (also the ready-file
// payload).
func (a *Agent) Info() AgentInfo { return a.info }

// Close stops the agent's HTTP server. In-flight requests get a short
// grace to finish: the POST /stop that triggered a shutdown must still
// get its answer. It does not stop the node.
func (a *Agent) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := a.srv.Shutdown(ctx); err != nil {
		return a.srv.Close()
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// handleHealthz serves the agent identity with the manager's aggregated
// status under "daemon"; clients that decode only AgentInfo ignore it.
func (a *Agent) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		AgentInfo
		Daemon Report `json:"daemon"`
	}{a.info, a.m.StatusReport()})
}

func (a *Agent) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	// The node's address doubles as the snapshot name; a collector on
	// the scraping side overrides it with the registered member name.
	writeJSON(w, metrics.SnapshotSource(a.m.Addr(), a.m.src))
}

func (a *Agent) handleView(w http.ResponseWriter, r *http.Request) {
	view := a.m.node.View()
	entries := make([]viewEntry, len(view))
	for i, d := range view {
		entries[i] = viewEntry{Addr: d.Addr, Hop: d.Hop}
	}
	writeJSON(w, entries)
}

func (a *Agent) handleStop(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST /stop", http.StatusMethodNotAllowed)
		return
	}
	a.m.RequestStop()
	writeJSON(w, map[string]bool{"stopping": true})
}

// handleFaults replaces the daemon's per-link fault rules: POST a JSON
// array of transport.FaultRule (an empty array heals everything). This
// is how a chaos plan's partitions and lossy links reach a forked
// psnode: the subprocess cluster driver pushes the same rule table the
// inproc driver hands each member's Manager directly.
func (a *Agent) handleFaults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST /faults", http.StatusMethodNotAllowed)
		return
	}
	var rules []transport.FaultRule
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&rules); err != nil {
		http.Error(w, "malformed fault rules: "+err.Error(), http.StatusBadRequest)
		return
	}
	a.m.SetFaultRules(rules)
	writeJSON(w, map[string]int{"active": len(rules)})
}

// WriteReady atomically writes info as JSON at path (write-then-rename),
// so a parent polling the path never reads a partial file.
func WriteReady(path string, info AgentInfo) error {
	raw, err := json.Marshal(info)
	if err != nil {
		return fmt.Errorf("daemon: ready file: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("daemon: ready file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("daemon: ready file: %w", err)
	}
	return nil
}

// ReadReady reads a ready file written by WriteReady.
func ReadReady(path string) (AgentInfo, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return AgentInfo{}, err
	}
	var info AgentInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		return AgentInfo{}, fmt.Errorf("daemon: ready file %s: %w", filepath.Base(path), err)
	}
	return info, nil
}
