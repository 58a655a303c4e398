package scenario

import (
	"strings"
	"testing"

	"peersampling/internal/metrics"
)

// csvMetrics parses a long-form CSV artifact and returns its key column
// and the set of metric names it carries.
func csvMetrics(t *testing.T, doc string) (string, map[string]bool) {
	t.Helper()
	key, rows, err := metrics.ParseLongCSV(doc)
	if err != nil {
		t.Fatal(err)
	}
	saw := map[string]bool{}
	for _, r := range rows {
		saw[r.Metric] = true
	}
	return key, saw
}

// The live broadcast scenario must spread one rumor to every survivor of
// a mid-spread kill wave that spares the source. Run under -race in CI;
// the subprocess-driver equivalent is covered by scripts/live-smoke.sh.
func TestLiveBroadcastSurvivesKillWave(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket workload scenario")
	}
	res, err := RunLiveBroadcast(Quick, 19, LiveEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged() {
		t.Fatalf("rumor did not survive the kill wave:\n%s", res.Render())
	}
	if want := (res.Params.Nodes - 1 + 3) / 4; res.Killed != want { // ceil(25%) of the non-source members
		t.Errorf("killed %d members want %d", res.Killed, want)
	}
	if res.Sent == 0 || res.Received == 0 {
		t.Errorf("no app traffic: sent=%d received=%d", res.Sent, res.Received)
	}
	if !strings.Contains(res.Render(), "rumor survived the kill wave: true") {
		t.Fatalf("Render() missing verdict:\n%s", res.Render())
	}
	doc, ok := res.CSV()["livebroadcast_spread"]
	if !ok {
		t.Fatal("CSV() missing livebroadcast_spread")
	}
	key, saw := csvMetrics(t, doc)
	if key != "node" {
		t.Fatalf("CSV key column = %q want node", key)
	}
	for _, m := range []string{"infected", "coverage"} {
		if !saw[m] {
			t.Errorf("CSV missing metric %s", m)
		}
	}
}

// The live aggregation scenario must collapse the estimate variance and
// estimate the fleet's size within 25%. The size-estimation phase adds
// its unit of mass with one message, so the estimate does not depend on
// how resets race the running gossip. Run under -race in CI; the
// subprocess-driver equivalent is covered by scripts/live-smoke.sh.
func TestLiveAggregateEstimatesSize(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket workload scenario")
	}
	res, err := RunLiveAggregate(Quick, 23, LiveEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged() {
		t.Fatalf("averaging did not converge:\n%s", res.Render())
	}
	if len(res.SizeEstimates) != res.Params.Nodes {
		t.Errorf("%d size estimates want one per member (%d)", len(res.SizeEstimates), res.Params.Nodes)
	}
	if !strings.Contains(res.Render(), "variance decayed and size estimated: true") {
		t.Fatalf("Render() missing verdict:\n%s", res.Render())
	}
	doc, ok := res.CSV()["liveaggregate_decay"]
	if !ok {
		t.Fatal("CSV() missing liveaggregate_decay")
	}
	key, saw := csvMetrics(t, doc)
	if key != "node" {
		t.Fatalf("CSV key column = %q want node", key)
	}
	for _, m := range []string{"value", "variance", "size_estimate"} {
		if !saw[m] {
			t.Errorf("CSV missing metric %s", m)
		}
	}
}
