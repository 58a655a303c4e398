package fleet_test

import (
	"testing"
	"time"

	"peersampling/internal/chaos"
	"peersampling/internal/config"
	"peersampling/internal/core"
	"peersampling/internal/fleet"
	"peersampling/internal/metrics"
)

// Two inproc clusters in one process share nothing but the process: a
// chaos plan that partitions one of them and drops every message it
// sends leaves the other gossiping untouched, with no fault rule on any
// of its members.
func TestInprocClustersIsolateFaults(t *testing.T) {
	boot := func() (fleet.Cluster, []fleet.Member) {
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
		first, err := c.Spawn(nil)
		if err != nil {
			t.Fatal(err)
		}
		rest, err := fleet.SpawnN(c, 3, []string{first.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		return c, append([]fleet.Member{first}, rest...)
	}
	faulted, victims := boot()
	_, bystanders := boot()
	waitViews(t, victims, 3)
	waitViews(t, bystanders, 3)

	plan, err := chaos.Parse([]byte(`
{"version": 1, "name": "isolate", "description": "cut half the fleet off and drop every message",
 "events": [{"action": "partition", "fraction": 0.5}, {"action": "loss", "loss": 1}]}
`))
	if err != nil {
		t.Fatal(err)
	}
	ex := chaos.New(plan, faulted, victims, chaos.Options{Seed: 1})
	defer ex.Close()
	for i := 0; i < 2; i++ {
		if _, err := ex.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range victims {
		if got := fleet.FaultRules(m); got != 9 {
			t.Errorf("faulted member %s holds %d rules, want 9", m.Name(), got)
		}
	}

	// Every bystander keeps completing exchanges, and none fails.
	before := counters(bystanders)
	deadline := time.Now().Add(10 * time.Second)
	for {
		after, advanced := counters(bystanders), 0
		for _, m := range bystanders {
			b, a := before[m.Name()], after[m.Name()]
			if a.Failures != b.Failures {
				t.Fatalf("bystander %s failed %d exchanges under the other cluster's plan", m.Name(), a.Failures-b.Failures)
			}
			if a.Exchanges >= b.Exchanges+5 {
				advanced++
			}
		}
		if advanced == len(bystanders) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d bystanders kept gossiping", advanced, len(bystanders))
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, m := range bystanders {
		if got := fleet.FaultRules(m); got != 0 {
			t.Errorf("bystander %s holds %d fault rules", m.Name(), got)
		}
	}
	waitViews(t, bystanders, 3)
}

// waitViews polls until every member's view holds want entries.
func waitViews(t *testing.T, members []fleet.Member, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		full := 0
		for _, m := range members {
			if view, err := m.View(); err == nil && len(view) >= want {
				full++
			}
		}
		if full == len(members) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d views reached %d entries", full, len(members), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// counters snapshots every member's protocol counters by name.
func counters(members []fleet.Member) map[string]metrics.NodeSnapshot {
	out := make(map[string]metrics.NodeSnapshot, len(members))
	for _, m := range members {
		s, _ := m.Snapshot()
		out[m.Name()] = s
	}
	return out
}
