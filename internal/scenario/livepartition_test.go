package scenario

import (
	"strings"
	"testing"

	"peersampling/internal/metrics"
)

// The partition-heal scenario is the chaos executor's acceptance test at
// the scenario layer: the named plan must demonstrably cut fresh
// cross-island knowledge while the partition rules hold and the fleet
// must regain it after they expire, with the chaos_event timeline
// exported next to the freshness trace. Run under -race in CI.
func TestLivePartitionHealsAfterRuleExpiry(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket partition scenario")
	}
	res, err := RunLivePartition(Quick, 17, LiveEnv{})
	if err != nil {
		t.Fatal(err)
	}

	if !res.Converged() {
		t.Fatalf("fleet did not partition and re-converge:\n%s", res.Render())
	}
	if res.ID() != "partitionheal" {
		t.Fatalf("ID() = %q", res.ID())
	}
	// The plan compiled to latency, partition and their two expiries — and
	// every step fired.
	if res.StepsCompiled != 4 || res.StepsApplied != 4 {
		t.Fatalf("steps = %d applied of %d compiled", res.StepsApplied, res.StepsCompiled)
	}
	actions := map[string]int{}
	for _, e := range res.Events {
		actions[e.Action]++
	}
	if actions["latency"] != 1 || actions["partition"] != 1 || actions["expire"] != 2 {
		t.Fatalf("event actions = %v", actions)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no freshness samples recorded")
	}
	// The partition must have been visible: fewer fresh pairs at the worst
	// point than before the plan, recovered afterwards.
	if !(res.MinFreshDuring < res.FreshBefore && res.FreshAfter > res.MinFreshDuring) {
		t.Fatalf("freshness trace shows no partition: before=%d min=%d after=%d",
			res.FreshBefore, res.MinFreshDuring, res.FreshAfter)
	}
	for _, want := range []string{"named fault plan", "plan=partition-heal", "fresh pairs", "re-converged after heal: true"} {
		if !strings.Contains(res.Render(), want) {
			t.Fatalf("Render() missing %q:\n%s", want, res.Render())
		}
	}

	// The CSV artifact aligns the chaos events with the freshness trace on
	// one schema.
	doc, ok := res.CSV()["partitionheal_trace"]
	if !ok {
		t.Fatal("CSV() missing partitionheal_trace")
	}
	key, rows, err := metrics.ParseLongCSV(doc)
	if err != nil {
		t.Fatal(err)
	}
	if key != "source" {
		t.Fatalf("CSV key column = %q want source", key)
	}
	sawMetric := map[string]bool{}
	for _, r := range rows {
		sawMetric[r.Metric] = true
	}
	for _, m := range []string{"fresh_pairs", "chaos_active_rules", "chaos_event", "chaos_event_partition", "chaos_event_expire"} {
		if !sawMetric[m] {
			t.Errorf("CSV missing metric %s", m)
		}
	}
}

func TestLivePartitionRegistered(t *testing.T) {
	d, ok := Find("partitionheal")
	if !ok {
		t.Fatal("partitionheal experiment not registered")
	}
	if d.Title == "" || d.Run == nil || d.RunLive == nil {
		t.Fatalf("incomplete registration: %+v", d)
	}
}
