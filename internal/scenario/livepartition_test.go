package scenario

import (
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"peersampling/internal/metrics"
)

// The partition-heal scenario is the chaos executor's acceptance test at
// the scenario layer: the named plan must demonstrably cut fresh
// cross-island knowledge while the partition rules hold and the fleet
// must regain it after they expire, with the chaos_event timeline
// exported next to the freshness trace. Every goroutine the fleet, the
// plan's rules and their expiry started must be gone once the run
// returns. Run under -race in CI.
func TestLivePartitionHealsAfterRuleExpiry(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket partition scenario")
	}
	before := goruntime.NumGoroutine()
	res, err := RunLivePartition(Quick, 17, LiveEnv{})
	if err != nil {
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

	if !res.Converged() {
		t.Fatalf("fleet did not partition and re-converge:\n%s", res.Render())
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
