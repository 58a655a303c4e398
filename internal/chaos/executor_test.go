package chaos

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"peersampling/internal/config"
	"peersampling/internal/core"
	"peersampling/internal/fleet"
	"peersampling/internal/metrics"
	"peersampling/internal/transport"
)

// recorder is a fleet.Cluster that remembers the fault rules last set
// through it, so tests observe exactly what an executor installed on
// this cluster and nothing any other test did.
type recorder struct {
	fleet.Cluster
	mu    sync.Mutex
	rules []transport.FaultRule
}

func (r *recorder) SetFaultRules(rules []transport.FaultRule) error {
	r.mu.Lock()
	r.rules = append([]transport.FaultRule(nil), rules...)
	r.mu.Unlock()
	return r.Cluster.SetFaultRules(rules)
}

func (r *recorder) Rules() []transport.FaultRule {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]transport.FaultRule(nil), r.rules...)
}

// newTestCluster boots a small inproc cluster over real loopback TCP.
// Every cluster's members own their fault rules, so these tests run in
// parallel.
func newTestCluster(t *testing.T, n int) (*recorder, []fleet.Member) {
	t.Helper()
	t.Parallel()
	tmpl := config.Default()
	tmpl.Node.Protocol = core.Newscast.String()
	tmpl.Node.ViewSize = 5
	tmpl.Node.Period = 15 * time.Millisecond
	tmpl.Transport.Backend = "tcp"
	c, err := fleet.New(fleet.DriverInproc, fleet.Config{Template: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	members := make([]fleet.Member, 0, n)
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
	return &recorder{Cluster: c}, members
}

func mustParse(t *testing.T, raw string) *Plan {
	t.Helper()
	p, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// remaining reports how many compiled steps ex has not applied yet.
func remaining(ex *Executor) int {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return len(ex.steps) - ex.next
}

func TestExecutorKillAndRespawn(t *testing.T) {
	c, members := newTestCluster(t, 4)
	plan := mustParse(t, `
{"version": 1, "name": "wave", "description": "one kill wave with respawn",
 "events": [{"action": "kill", "fraction": 0.5, "respawn_after": "1ms"}]}
`)
	ex := New(plan, c, members, Options{Seed: 11})
	if ex.Steps() != 2 || remaining(ex) != 2 {
		t.Fatalf("compiled %d steps, %d remaining", ex.Steps(), remaining(ex))
	}

	ap, err := ex.Step()
	if err != nil {
		t.Fatal(err)
	}
	if ap.Action != ActionKill || len(ap.Killed) != 2 {
		t.Fatalf("kill step = %+v", ap)
	}
	for _, v := range ap.Killed {
		if v.Alive() {
			t.Errorf("victim %s survived", v.Name())
		}
	}
	if got := len(aliveOf(ex.Members())); got != 2 {
		t.Fatalf("alive after kill = %d", got)
	}
	if ex.KilledTotal() != 2 {
		t.Errorf("KilledTotal = %d", ex.KilledTotal())
	}

	ap, err = ex.Step()
	if err != nil {
		t.Fatal(err)
	}
	if ap.Action != ActionRespawn || len(ap.Spawned) != 2 {
		t.Fatalf("respawn step = %+v", ap)
	}
	if got := len(aliveOf(ex.Members())); got != 4 {
		t.Errorf("alive after respawn = %d", got)
	}
	if got := len(ex.Members()); got != 6 {
		t.Errorf("total members tracked = %d", got)
	}
	if ex.Respawned() != 2 {
		t.Errorf("Respawned = %d", ex.Respawned())
	}

	if _, err := ex.Step(); !errors.Is(err, ErrDone) {
		t.Errorf("step past the end = %v", err)
	}
	fired := ex.Fired()
	if len(fired) != 2 || fired[0].Action != ActionKill || fired[1].Action != ActionRespawn {
		t.Errorf("fired = %+v", fired)
	}
	if fired[0].Seq != 0 || fired[1].Seq != 1 {
		t.Errorf("fired seqs = %+v", fired)
	}
}

func TestExecutorKillByName(t *testing.T) {
	c, members := newTestCluster(t, 3)
	victim := members[1].Name()
	plan := &Plan{Version: 1, Name: "named", Events: []Event{
		{Action: ActionKill, Members: []string{victim}},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	ex := New(plan, c, members, Options{Seed: 1})
	ap, err := ex.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(ap.Killed) != 1 || ap.Killed[0].Name() != victim {
		t.Fatalf("killed = %+v", ap.Killed)
	}

	// A second executor naming the now-dead member must fail cleanly.
	ex2 := New(plan, c, ex.Members(), Options{Seed: 1})
	if _, err := ex2.Step(); err == nil || !strings.Contains(err.Error(), victim) {
		t.Errorf("kill of dead member = %v", err)
	}
}

func TestExecutorPartitionExpireAndClose(t *testing.T) {
	c, members := newTestCluster(t, 4)
	plan := mustParse(t, `
{"version": 1, "name": "split", "description": "random island cut off, expiring",
 "events": [{"action": "partition", "fraction": 0.5, "for": "100ms"}]}
`)
	ex := New(plan, c, members, Options{Seed: 3})
	if ex.Steps() != 2 {
		t.Fatalf("compiled %d steps", ex.Steps())
	}
	ap, err := ex.Step()
	if err != nil {
		t.Fatal(err)
	}
	// 2-member island x 2 outside, both directions.
	if ap.RulesTouched != 8 || ap.ActiveRules != 8 {
		t.Fatalf("partition step = %+v", ap)
	}
	if got := len(c.Rules()); got != 8 {
		t.Fatalf("cluster has %d rules", got)
	}

	ap, err = ex.Step()
	if err != nil {
		t.Fatal(err)
	}
	if ap.Action != ActionExpire || ap.ActiveRules != 0 {
		t.Fatalf("expire step = %+v", ap)
	}
	if got := len(c.Rules()); got != 0 {
		t.Errorf("cluster kept %d rules after expiry", got)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestExecutorCloseHealsMidPlan(t *testing.T) {
	c, members := newTestCluster(t, 2)
	plan := mustParse(t, `
{"version": 1, "name": "cutcut", "description": "directed cut that never expires on its own",
 "events": [{"action": "partition", "from": ["node00"], "to": ["node01"]}]}
`)
	ex := New(plan, c, members, Options{Seed: 3})
	ap, err := ex.Step()
	if err != nil {
		t.Fatal(err)
	}
	if ap.RulesTouched != 1 {
		t.Fatalf("directed cut = %+v", ap)
	}
	rules := c.Rules()
	if len(rules) != 1 || !rules[0].Cut ||
		rules[0].From != members[0].Addr() || rules[0].To != members[1].Addr() {
		t.Fatalf("installed rules = %+v", rules)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Rules()); got != 0 {
		t.Errorf("Close left %d rules", got)
	}
	if ex.ActiveRules() != 0 {
		t.Errorf("executor still reports %d active rules", ex.ActiveRules())
	}
}

func TestExecutorLatencyAndLossRules(t *testing.T) {
	c, members := newTestCluster(t, 2)
	plan := mustParse(t, `
{"version": 1, "name": "degrade", "description": "global latency plus directed loss",
 "events": [
  {"action": "latency", "latency": "3ms"},
  {"action": "loss", "loss": 0.25, "from": ["node01"], "to": ["node00"]},
  {"at": "1ms", "action": "heal"}
 ]}
`)
	ex := New(plan, c, members, Options{Seed: 3})
	defer ex.Close()
	if _, err := ex.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Step(); err != nil {
		t.Fatal(err)
	}
	var sawLatency, sawLoss bool
	for _, r := range c.Rules() {
		if r.From == "*" && r.To == "*" && r.Latency == 3*time.Millisecond {
			sawLatency = true
		}
		if r.From == members[1].Addr() && r.To == members[0].Addr() && r.Loss == 0.25 {
			sawLoss = true
		}
	}
	if !sawLatency || !sawLoss {
		t.Fatalf("rules = %+v", c.Rules())
	}
	ap, err := ex.Step()
	if err != nil {
		t.Fatal(err)
	}
	if ap.Action != ActionHeal || ap.RulesTouched != 2 || ap.ActiveRules != 0 {
		t.Fatalf("heal step = %+v", ap)
	}
}

func TestExecutorRunHonorsClockAndContext(t *testing.T) {
	c, members := newTestCluster(t, 2)
	plan := mustParse(t, `
{"version": 1, "name": "timed", "description": "latency pulse then a far-future event",
 "events": [
  {"action": "latency", "latency": "1ms", "for": "20ms"},
  {"at": "10s", "action": "heal"}
 ]}
`)
	ex := New(plan, c, members, Options{Seed: 3})
	defer ex.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	err := ex.Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v", err)
	}
	// The pulse and its expiry fired; the far-future heal did not.
	if got := remaining(ex); got != 1 {
		t.Errorf("remaining = %d", got)
	}
	if got := len(c.Rules()); got != 0 {
		t.Errorf("pulse did not expire: %d rules", got)
	}
}

func TestExecutorFloodCountsDials(t *testing.T) {
	c, members := newTestCluster(t, 2)
	plan := mustParse(t, `
{"version": 1, "name": "spray", "description": "short flood against the first member",
 "events": [{"action": "flood", "flooders": 1, "for": "100ms"}]}
`)
	ex := New(plan, c, members, Options{Seed: 3})
	ap, err := ex.Step()
	if err != nil {
		t.Fatal(err)
	}
	if ap.FloodDials == 0 || ex.FloodDials() != ap.FloodDials {
		t.Errorf("flood dials = %+v / %d", ap, ex.FloodDials())
	}
}

func TestExecutorExportsSnapshots(t *testing.T) {
	c, members := newTestCluster(t, 4)
	coll := metrics.New()
	plan := mustParse(t, `
{"version": 1, "name": "observed", "description": "kill wave under a collector",
 "events": [{"action": "kill", "fraction": 0.25}]}
`)
	ex := New(plan, c, members, Options{Seed: 5, Collector: coll, Source: "chaos"})
	if _, err := ex.Step(); err != nil {
		t.Fatal(err)
	}
	var snap metrics.NodeSnapshot
	found := false
	for _, s := range coll.Snapshot() {
		if s.Node == "chaos" {
			snap, found = s, true
		}
	}
	if !found {
		t.Fatal("executor not registered on the collector")
	}
	if snap.Chaos == nil || snap.Chaos.Plan != "observed" || snap.Chaos.Events != 1 ||
		snap.Chaos.Killed != 1 || len(snap.Chaos.Fired) != 1 {
		t.Fatalf("chaos snapshot = %+v", snap.Chaos)
	}
	if snap.Cycles != 1 || snap.Addr != "plan:observed" {
		t.Errorf("snapshot header = %+v", snap)
	}
	// The long-form rows carry the chaos_event series.
	var sawEvent, sawGauge bool
	for _, row := range snap.Rows() {
		switch row.Metric {
		case "chaos_event":
			sawEvent = true
		case "chaos_active_rules":
			sawGauge = true
		}
	}
	if !sawEvent || !sawGauge {
		t.Errorf("rows missing chaos series: %+v", snap.Rows())
	}
}
