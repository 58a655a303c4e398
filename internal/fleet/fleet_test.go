package fleet

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"testing"
	"time"

	"peersampling/internal/config"
	"peersampling/internal/core"
	"peersampling/internal/daemon"
	"peersampling/internal/metrics"
)

// psnodeBin is the psnode binary built once for the subprocess tests;
// empty when the build failed (those tests then skip with the reason).
var (
	psnodeBin      string
	psnodeBuildErr error
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fleetbin-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin := filepath.Join(dir, "psnode")
	cmd := exec.Command("go", "build", "-o", bin, "peersampling/cmd/psnode")
	if out, err := cmd.CombinedOutput(); err != nil {
		psnodeBuildErr = fmt.Errorf("building psnode: %v\n%s", err, out)
	} else {
		psnodeBin = bin
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testConfig() Config {
	return Config{
		Protocol: core.Newscast,
		ViewSize: 5,
		Period:   15 * time.Millisecond,
	}
}

// spawnN boots the first member contactless and the rest against it.
func spawnN(t *testing.T, c Cluster, n int) []Member {
	t.Helper()
	members := make([]Member, 0, n)
	for i := 0; i < n; i++ {
		var contacts []string
		if i > 0 {
			contacts = []string{members[0].Addr()}
		}
		m, err := c.Spawn(contacts)
		if err != nil {
			t.Fatalf("spawn %d: %v", i, err)
		}
		members = append(members, m)
	}
	return members
}

// complete reports whether every live member's view holds every other
// live member.
func complete(members []Member) bool {
	live := map[string]bool{}
	for _, m := range members {
		if m.Alive() {
			live[m.Addr()] = true
		}
	}
	for _, m := range members {
		if !m.Alive() {
			continue
		}
		view, err := m.View()
		if err != nil {
			return false
		}
		known := map[string]bool{}
		for _, d := range view {
			if live[d.Addr] && d.Addr != m.Addr() {
				known[d.Addr] = true
			}
		}
		if len(known) != len(live)-1 {
			return false
		}
	}
	return true
}

func waitComplete(t *testing.T, members []Member, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if complete(members) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not converge within %v", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestInprocClusterLifecycle(t *testing.T) {
	coll := metrics.New()
	cfg := testConfig()
	cfg.Collector = coll
	c, err := New(DriverInproc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Goroutine accounting brackets the whole lifecycle: Close must
	// return the process to (almost) where Spawn found it.
	before := goruntime.NumGoroutine()

	members := spawnN(t, c, 4)
	if len(c.Addrs()) != 4 {
		t.Fatalf("Addrs = %v", c.Addrs())
	}
	waitComplete(t, members, 10*time.Second)

	if coll.Len() != 4 {
		t.Fatalf("collector has %d sources want 4", coll.Len())
	}
	snaps := c.Snapshot()
	if len(snaps) != 4 {
		t.Fatalf("Snapshot len = %d", len(snaps))
	}
	for _, s := range snaps {
		if s.Node == "" || s.Addr == "" {
			t.Errorf("anonymous snapshot: %+v", s)
		}
		if s.Wire == nil {
			t.Errorf("member %s has no wire counters over TCP", s.Node)
		}
		if s.Latency == nil {
			t.Errorf("member %s has no latency histogram", s.Node)
		}
	}
	if snaps[0].Node != "node00" {
		t.Errorf("first member name = %q", snaps[0].Node)
	}

	// Kill one: it leaves Addrs and Snapshot, survivors re-converge.
	if err := c.Kill(members[1]); err != nil {
		t.Fatal(err)
	}
	if members[1].Alive() {
		t.Error("killed member still Alive")
	}
	if err := c.Kill(members[1]); err != nil {
		t.Errorf("double Kill: %v", err)
	}
	if got := len(c.Addrs()); got != 3 {
		t.Errorf("Addrs after kill = %d", got)
	}
	if got := len(c.Snapshot()); got != 3 {
		t.Errorf("Snapshot after kill = %d", got)
	}
	waitComplete(t, members, 10*time.Second)

	// Close is idempotent and leak-free.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := c.Spawn(nil); err == nil {
		t.Error("Spawn after Close succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if got := goruntime.NumGoroutine(); got > before+2 {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines leaked: %d -> %d\n%s", before, got, buf[:goruntime.Stack(buf, true)])
	}
}

func TestAgentServesNodeAndStops(t *testing.T) {
	c, err := New(DriverInproc, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	members := spawnN(t, c, 2)
	waitComplete(t, members, 10*time.Second)

	mgr := members[0].(*inprocMember).mgr
	node := mgr.Node()
	// The latency histogram only fills on completed ACTIVE exchanges;
	// wait until the contact node has initiated at least one.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if node.ExchangeLatency().Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("contact node never completed an active exchange")
		}
		time.Sleep(10 * time.Millisecond)
	}
	agent, err := daemon.NewAgent("127.0.0.1:0", mgr)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	client := newAgentClient(agent.Addr())
	info, err := client.health()
	if err != nil {
		t.Fatal(err)
	}
	if info.PID != os.Getpid() || info.Addr != node.Addr() || info.ControlAddr != agent.Addr() {
		t.Errorf("healthz info wrong: %+v", info)
	}
	snap, err := client.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Addr != node.Addr() || snap.Cycles == 0 {
		t.Errorf("snapshot wrong: %+v", snap)
	}
	if snap.Latency == nil || snap.Latency.Count == 0 {
		t.Errorf("snapshot lost the latency histogram: %+v", snap.Latency)
	}
	view, err := client.view()
	if err != nil {
		t.Fatal(err)
	}
	if len(view) == 0 || view[0].Addr == "" {
		t.Errorf("view dump wrong: %+v", view)
	}

	// /stop is POST-only, idempotent, and lands on the manager's stop
	// requests.
	resp, err := client.hc.Get(client.base + "/stop")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Error("GET /stop accepted")
	}
	if err := client.stopNode(); err != nil {
		t.Fatal(err)
	}
	if err := client.stopNode(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
	select {
	case <-mgr.StopRequests():
	case <-time.After(5 * time.Second):
		t.Fatal("stop request never reached the manager")
	}
}

func TestReadyFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ready.json")
	if _, err := daemon.ReadReady(path); err == nil {
		t.Error("missing ready file read successfully")
	}
	want := daemon.AgentInfo{PID: 42, Addr: "127.0.0.1:1", ControlAddr: "127.0.0.1:2", StartUnixMillis: 3}
	if err := daemon.WriteReady(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := daemon.ReadReady(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("round trip: %+v != %+v", got, want)
	}
	if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
		t.Errorf("temp file left behind: %v", entries)
	}
}

func needPsnode(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("subprocess fleet test")
	}
	if psnodeBin == "" {
		t.Skipf("psnode binary unavailable: %v", psnodeBuildErr)
	}
	return psnodeBin
}

// The subprocess driver's acceptance test: real psnode processes
// converge, one dies mid-exchange by SIGKILL, the survivors' counters
// (scraped through the agent) stay consistent and keep advancing, and
// Close reaps everything. Run under -race in CI (races here are in the
// driver, not the daemons).
func TestSubprocessClusterChurnAndTeardown(t *testing.T) {
	bin := needPsnode(t)
	coll := metrics.New()
	cfg := testConfig()
	cfg.Psnode = bin
	cfg.Collector = coll
	c, err := New(DriverSubprocess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	members := spawnN(t, c, 3)
	waitComplete(t, members, 30*time.Second)

	// Counters scraped through the agent must be live and well-formed.
	snaps := c.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("Snapshot len = %d", len(snaps))
	}
	for _, s := range snaps {
		if s.Cycles == 0 {
			t.Errorf("member %s shows no cycles", s.Node)
		}
		if s.Wire == nil || s.Wire.Dials == 0 {
			t.Errorf("member %s wire counters flat: %+v", s.Node, s.Wire)
		}
	}

	// Kill one process outright, mid-gossip; with a 15ms period there is
	// essentially always an exchange in flight.
	victim := members[2]
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if victim.Alive() {
		t.Error("killed member still Alive")
	}
	if _, err := victim.Snapshot(); err == nil {
		t.Error("snapshot of a SIGKILLed process succeeded")
	}
	if err := c.Kill(victim); err != nil {
		t.Errorf("double Kill: %v", err)
	}

	// Survivors keep gossiping: their exchange counters advance past the
	// kill, with failures against the dead peer tolerated, and their
	// wire counters (the StatsReporter path through the agent) stay
	// monotonic and consistent.
	base := map[string]metrics.NodeSnapshot{}
	for _, s := range c.Snapshot() {
		base[s.Node] = s
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		advanced := 0
		snaps := c.Snapshot()
		for _, s := range snaps {
			b := base[s.Node]
			if s.Cycles < b.Cycles || s.Exchanges < b.Exchanges || s.Wire == nil ||
				s.Wire.Dials < b.Wire.Dials || s.Wire.BytesOut < b.Wire.BytesOut {
				t.Fatalf("counters went backwards after the kill: %+v then %+v", b, s)
			}
			if s.Exchanges > b.Exchanges {
				advanced++
			}
		}
		if advanced == len(snaps) && len(snaps) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors made no progress after the kill")
		}
		time.Sleep(50 * time.Millisecond)
	}
	waitComplete(t, members, 30*time.Second)

	// The external collector sees the dead member as a stale source, not
	// a hole in the exposition.
	var sawStale bool
	for _, s := range coll.Snapshot() {
		if s.Node == victim.Name() {
			sawStale = s.Stale
		}
	}
	if !sawStale {
		t.Error("dead member not marked stale on the collector")
	}

	// Close reaps every process and is idempotent.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := c.Spawn(nil); err == nil {
		t.Error("Spawn after Close succeeded")
	}
	for _, m := range members {
		sm := m.(*subprocessMember)
		select {
		case <-sm.exited:
		default:
			t.Errorf("member %s process still running after Close", sm.name)
		}
	}
}

// Spawning against a binary that exits immediately must surface the log
// tail, not hang.
func TestSubprocessSpawnFailureDiagnosed(t *testing.T) {
	bin := needPsnode(t)
	cfg := testConfig()
	cfg.Psnode = bin
	cfg.ViewSize = -1 // psnode rejects this before binding anything
	cfg.SpawnTimeout = 10 * time.Second
	c, err := New(DriverSubprocess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Spawn(nil); err == nil {
		t.Fatal("doomed spawn succeeded")
	}
}

func TestSubprocessNeedsBinary(t *testing.T) {
	if _, err := New(DriverSubprocess, testConfig()); err == nil {
		t.Error("driver accepted an empty Psnode path")
	}
	cfg := testConfig()
	cfg.Psnode = "/nonexistent/psnode"
	if _, err := New(DriverSubprocess, cfg); err == nil {
		t.Error("driver accepted a missing binary")
	}
}

func TestUnknownDriver(t *testing.T) {
	if _, err := New("container", Config{}); err == nil {
		t.Error("unknown driver accepted")
	}
}

// SpawnN boots a wave concurrently on the cheap driver: all members come
// up, converge, and the degenerate and failure shapes behave.
func TestSpawnNWaveInproc(t *testing.T) {
	c, err := New(DriverInproc, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	first, err := c.Spawn(nil)
	if err != nil {
		t.Fatal(err)
	}
	wave, err := SpawnN(c, 4, []string{first.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if len(wave) != 4 {
		t.Fatalf("SpawnN returned %d members", len(wave))
	}
	names := map[string]bool{first.Name(): true}
	for _, m := range wave {
		if !m.Alive() {
			t.Errorf("member %s spawned dead", m.Name())
		}
		if names[m.Name()] {
			t.Errorf("duplicate member name %s", m.Name())
		}
		names[m.Name()] = true
	}
	waitComplete(t, append([]Member{first}, wave...), 30*time.Second)

	if ms, err := SpawnN(c, 0, nil); ms != nil || err != nil {
		t.Errorf("SpawnN(0) = %v, %v", ms, err)
	}
	c.Close()
	if _, err := SpawnN(c, 3, nil); err == nil {
		t.Error("SpawnN on a closed cluster succeeded")
	}
}

// The subprocess driver provisions members from generated config files:
// each member's directory keeps the complete config it booted from, and
// the file round-trips through the config loader.
func TestSpawnNSubprocessProvisionsConfigFiles(t *testing.T) {
	bin := needPsnode(t)
	cfg := testConfig()
	cfg.Psnode = bin
	cfg.Dir = t.TempDir()
	c, err := New(DriverSubprocess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	first, err := c.Spawn(nil)
	if err != nil {
		t.Fatal(err)
	}
	wave, err := SpawnN(c, 2, []string{first.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	waitComplete(t, append([]Member{first}, wave...), 30*time.Second)

	for _, name := range []string{"node00", "node01", "node02"} {
		path := filepath.Join(cfg.Dir, name, "config.json")
		mc, err := config.LoadFile(path)
		if err != nil {
			t.Fatalf("member %s config does not round-trip: %v", name, err)
		}
		if mc.Node.ViewSize != cfg.ViewSize || mc.Transport.Backend != "tcp" {
			t.Errorf("member %s config = %+v", name, mc.Node)
		}
		if mc.Control.Addr == "" || mc.Control.ReadyFile == "" {
			t.Errorf("member %s config missing control surface: %+v", name, mc.Control)
		}
	}
	if len(first.(*subprocessMember).info.Addr) == 0 {
		t.Error("first member has no discovered address")
	}
}
