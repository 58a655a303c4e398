package daemon

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"peersampling/internal/config"
	"peersampling/internal/transport"
)

// testConfig is a loopback daemon config with every plugin on an
// ephemeral port and a fast enough period for tests.
func testConfig(t *testing.T) config.Config {
	cfg := config.Default()
	cfg.Node.Period = 50 * time.Millisecond
	cfg.Node.ViewSize = 8
	cfg.Transport.Backend = "tcp"
	cfg.Metrics.ReportInterval = time.Hour // tests trigger nothing periodic
	cfg.Control.Addr = "127.0.0.1:0"
	cfg.Control.ReadyFile = filepath.Join(t.TempDir(), "ready.json")
	cfg.Gateway.Addr = "127.0.0.1:0"
	cfg.Gateway.Refresh = 20 * time.Millisecond
	cfg.Gateway.RateRPS = 1000
	cfg.Gateway.Burst = 1000
	return cfg
}

func startManager(t *testing.T, cfg config.Config) *Manager {
	t.Helper()
	m, err := New(cfg, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		_ = m.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// pluginAddr digs a running plugin's bound address out of the report.
func pluginAddr(t *testing.T, m *Manager, name string) string {
	t.Helper()
	st, ok := m.StatusReport().Plugins[name]
	if !ok || st.State != "running" {
		t.Fatalf("plugin %s not running: %+v", name, m.StatusReport())
	}
	return st.Detail
}

// TestDaemonBootsEverything boots two daemons from configs alone,
// bootstraps one off the other, and checks the whole surface: ready
// file, aggregated /healthz on the control port, peer samples from the
// gateway.
func TestDaemonBootsEverything(t *testing.T) {
	first := startManager(t, testConfig(t))

	cfg2 := testConfig(t)
	cfg2.Node.Contacts = []string{first.Addr()}
	second := startManager(t, cfg2)

	// Ready file carries the agent identity.
	info, err := ReadReady(second.Config().Control.ReadyFile)
	if err != nil {
		t.Fatal(err)
	}
	if info.Addr != second.Addr() || info.ControlAddr == "" {
		t.Fatalf("ready info = %+v", info)
	}

	// The control agent's /healthz embeds the aggregated plugin report.
	var health struct {
		AgentInfo
		Daemon Report `json:"daemon"`
	}
	resp, err := http.Get("http://" + info.ControlAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Daemon.State != "running" {
		t.Fatalf("daemon state = %q", health.Daemon.State)
	}
	for _, name := range []string{"reporter", "control-agent", "gateway"} {
		if st := health.Daemon.Plugins[name]; st.State != "running" {
			t.Errorf("plugin %s = %+v", name, st)
		}
	}

	// The gateway serves a peer sample once gossip has run a few cycles.
	gwAddr := pluginAddr(t, second, "gateway")
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + gwAddr + "/v1/sample")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Peers []string `json:"peers"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && err == nil &&
			len(body.Peers) == 1 && body.Peers[0] == first.Addr() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never served a sample: status=%d peers=%v", resp.StatusCode, body.Peers)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSIGHUPReloadsTransportLimitsLive drives the real signal path: a
// daemon under Run, a rewritten config file with a limits-only change,
// SIGHUP, and the new connection cap observable on the live listener —
// without any restart.
func TestSIGHUPReloadsTransportLimitsLive(t *testing.T) {
	cfg := testConfig(t)
	cfgPath := filepath.Join(t.TempDir(), "psnode.json")
	if err := config.WriteFile(cfgPath, cfg); err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	runErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		runErr <- m.Run(func() (config.Config, error) { return config.LoadFile(cfgPath) })
	}()
	defer func() {
		m.RequestStop()
		wg.Wait()
		if err := <-runErr; err != nil {
			t.Errorf("Run: %v", err)
		}
	}()

	// Wait for boot (Run installs its signal handler before Start, so a
	// running daemon is guaranteed to catch the SIGHUP).
	deadline := time.Now().Add(10 * time.Second)
	for m.StatusReport().State != "running" {
		if time.Now().After(deadline) {
			t.Fatal("daemon never reached running state")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Rewrite the file with a limits-only change and deliver SIGHUP.
	reloaded := cfg
	reloaded.Transport.MaxConns = 1
	reloaded.Transport.KeepAlive = 30 * time.Second
	if err := config.WriteFile(cfgPath, reloaded); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}

	// The running config converges to the merged value...
	for m.Config().Transport.MaxConns != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("config never picked up the reload: %+v", m.Config().Transport)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// ...and the restart-required fields stayed as booted.
	if got := m.Config().Node.Listen; got != cfg.Node.Listen {
		t.Errorf("listen changed on hot reload: %q", got)
	}

	// The cap is live on the listener: hold one connection, and the next
	// one must be rejected (closed and counted).
	holder, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	over, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	for {
		stats, ok := m.Node().TransportStats()
		if ok && stats.AcceptRejects >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lowered MaxConns never rejected a connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReloadClassification checks restart-only changes apply nothing and
// hot changes reach the report loops and the gateway.
func TestReloadClassification(t *testing.T) {
	cfg := testConfig(t)
	m := startManager(t, cfg)

	// Restart-only change: reported, not applied.
	next := cfg
	next.Transport.Backend = "udp"
	diff, err := m.Reload(next)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Hot) != 0 || len(diff.Restart) != 1 || diff.Restart[0] != "transport.backend" {
		t.Fatalf("diff = %+v", diff)
	}
	if m.Config().Transport.Backend != cfg.Transport.Backend {
		t.Error("restart-required field was applied")
	}

	// Hot change: the report interval is what the dumper's and the
	// reporter's loops read each round.
	next = cfg
	next.Metrics.ReportInterval = 123 * time.Second
	if _, err := m.Reload(next); err != nil {
		t.Fatal(err)
	}
	if got := m.reportInterval(); got != 123*time.Second {
		t.Errorf("reporter interval = %v", got)
	}

	// Identical reload is a clean no-op.
	if diff, err := m.Reload(next); err != nil || !diff.Empty() {
		t.Errorf("repeat reload: diff=%+v err=%v", diff, err)
	}

	// Invalid config is rejected outright.
	bad := cfg
	bad.Node.ViewSize = 0
	if _, err := m.Reload(bad); err == nil || !strings.Contains(err.Error(), "node.view_size") {
		t.Errorf("invalid reload error = %v", err)
	}
}

// TestReloadMovesGatewayRateLimit lowers gateway.burst on a running
// gateway: the number of requests a fresh client gets before its first
// 429 follows the reloaded burst.
func TestReloadMovesGatewayRateLimit(t *testing.T) {
	cfg := testConfig(t)
	cfg.Gateway.RateRPS = 0.001 // no refill within the test
	cfg.Gateway.Burst = 5
	cfg.Gateway.TrustProxyHeader = true // one client per X-Forwarded-For address
	m := startManager(t, cfg)
	gw := pluginAddr(t, m, "gateway")

	// admitted counts the requests client gets answered (a sample or a
	// 503 from an empty view) before its first 429.
	admitted := func(client string) int {
		t.Helper()
		for n := 0; n <= 10; n++ {
			req, err := http.NewRequest(http.MethodGet, "http://"+gw+"/v1/sample", nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("X-Forwarded-For", client)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				return n
			}
		}
		t.Fatalf("client %s never rate-limited", client)
		return 0
	}
	if got := admitted("192.0.2.1"); got != 5 {
		t.Fatalf("booted burst 5 admitted %d requests", got)
	}

	next := cfg
	next.Gateway.Burst = 2
	diff, err := m.Reload(next)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(diff.Hot, []string{"gateway.burst"}) || len(diff.Restart) != 0 {
		t.Fatalf("diff = %+v", diff)
	}
	if got := admitted("192.0.2.2"); got != 2 {
		t.Fatalf("reloaded burst 2 admitted %d requests", got)
	}
}

// TestReloadLogsWhatRunningComponentsTook checks the reload log: a hot
// change is "applied" only when a running component took it, and
// otherwise recorded for the next start.
func TestReloadLogsWhatRunningComponentsTook(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	cfg := testConfig(t)
	cfg.Gateway.Addr = "" // no gateway runs to take gateway tuning
	m, err := New(cfg, Options{Logf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		_ = m.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })

	next := cfg
	next.Gateway.Burst = 2
	next.Transport.MaxConns = 7
	if _, err := m.Reload(next); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, want := range []string{
		"reload: gateway.burst recorded for the next start",
		"reload: transport.max_conns applied",
	} {
		if !slices.Contains(lines, want) {
			t.Errorf("log lacks %q:\n%s", want, strings.Join(lines, "\n"))
		}
	}
	if slices.Contains(lines, "reload: gateway.burst applied") {
		t.Error("log claims a gateway that is not running applied gateway.burst")
	}
}

// TestStopRequestEndsRun checks the control agent's stop path unblocks
// Run and Close-s cleanly.
func TestStopRequestEndsRun(t *testing.T) {
	cfg := testConfig(t)
	cfg.Control.ReadyFile = ""
	m, err := New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Run(nil) }()

	// Wait for the agent to come up, then stop through its HTTP surface.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := m.StatusReport().Plugins["control-agent"]; st.State == "running" {
			resp, err := http.Post("http://"+st.Detail+"/stop", "application/json", nil)
			if err == nil {
				resp.Body.Close()
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("control agent never came up")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not exit on stop request")
	}
	if m.StatusReport().State != "stopped" {
		t.Errorf("state = %q", m.StatusReport().State)
	}
}

// StatusReport surfaces the daemon's own fault-rule count, so the
// /healthz payload tells an operator when a chaos plan is shaping this
// node's links. Rules arrive by direct call or through the control
// agent's POST /faults, and never leak into another daemon in the same
// process.
func TestStatusReportCountsFaultRules(t *testing.T) {
	m := startManager(t, testConfig(t))
	other := startManager(t, testConfig(t))
	if got := m.StatusReport().FaultRules; got != 0 {
		t.Fatalf("fault_rules = %d before any injection", got)
	}
	m.SetFaultRules([]transport.FaultRule{{From: "*", To: "*", Loss: 0.5}})
	if got := m.StatusReport().FaultRules; got != 1 {
		t.Fatalf("fault_rules = %d with one rule installed", got)
	}
	if got := other.StatusReport().FaultRules; got != 0 {
		t.Fatalf("another daemon sees %d fault rules", got)
	}
	m.SetFaultRules(nil)
	if got := m.StatusReport().FaultRules; got != 0 {
		t.Fatalf("fault_rules = %d after heal", got)
	}

	post := func(body string) {
		t.Helper()
		resp, err := http.Post("http://"+pluginAddr(t, m, "control-agent")+"/faults", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /faults %s: status %d", body, resp.StatusCode)
		}
	}
	post(`[{"from": "*", "to": "*", "cut": true}, {"from": "a", "to": "b", "loss": 0.1}]`)
	if got := m.StatusReport().FaultRules; got != 2 {
		t.Fatalf("fault_rules = %d after POST /faults", got)
	}
	post(`[]`)
	if got := m.StatusReport().FaultRules; got != 0 {
		t.Fatalf("fault_rules = %d after healing POST", got)
	}
}

// TestCloseAfterReloadLeaksNoGoroutines boots two daemons on tcp-pooled
// with every plugin, lets them gossip and run their workload, reloads
// the intervals each background loop reads, and closes both: every
// goroutine they started — active threads, workload rounds, dumper,
// reporter, gateway refresh, pool sweepers, servers — must be gone.
func TestCloseAfterReloadLeaksNoGoroutines(t *testing.T) {
	before := goruntime.NumGoroutine()

	leakConfig := func() config.Config {
		cfg := testConfig(t)
		cfg.Node.Period = 10 * time.Millisecond
		cfg.Transport.Backend = "tcp-pooled"
		cfg.Metrics.Addr = "127.0.0.1:0"
		cfg.Metrics.Dump = filepath.Join(t.TempDir(), "dump.csv")
		cfg.Metrics.ReportInterval = 10 * time.Millisecond
		cfg.Workload.Kind = config.WorkloadBroadcast
		return cfg
	}
	boot := func(cfg config.Config) *Manager {
		m, err := New(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Start(); err != nil {
			_ = m.Close()
			t.Fatal(err)
		}
		return m
	}
	cfg := leakConfig()
	first := boot(cfg)
	cfg2 := leakConfig()
	cfg2.Node.Contacts = []string{first.Addr()}
	second := boot(cfg2)
	closed := false
	defer func() {
		if !closed {
			_ = second.Close()
			_ = first.Close()
		}
	}()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s did not happen within 10s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("a completed exchange", func() bool {
		_, exchanges, _, _ := second.Node().Stats()
		return exchanges > 0
	})

	next := cfg
	next.Metrics.ReportInterval = 7 * time.Millisecond
	next.Gateway.Refresh = 5 * time.Millisecond
	diff, err := first.Reload(next)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(diff.Hot, "metrics.report_interval") || !slices.Contains(diff.Hot, "gateway.refresh") {
		t.Fatalf("reload diff = %+v", diff)
	}
	refreshes := func() uint64 {
		for _, s := range first.Collector().Snapshot() {
			if s.Gateway != nil {
				return s.Gateway.Refreshes
			}
		}
		return 0
	}
	base := refreshes()
	waitFor("three refreshes at the reloaded interval", func() bool { return refreshes() >= base+3 })

	closed = true
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := goruntime.NumGoroutine(); got > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines leaked: %d -> %d\n%s", before, got, buf[:goruntime.Stack(buf, true)])
	}
}
