package scenario

import (
	"strings"
	"testing"

	"peersampling/internal/metrics"
)

// The live gateway scenario is the load harness's acceptance test: over
// a thousand emulated clients ramp against every member's gateway while
// a kill wave removes a quarter of the fleet, and the surviving
// gateways must keep serving fresh samples with bounded tail latency.
// Run under -race in CI; the subprocess-driver equivalent is covered by
// scripts/live-smoke.sh.
func TestLiveGatewayServesThroughKillWave(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket load scenario")
	}
	coll := metrics.New()
	res, err := RunLiveGateway(Quick, 13, LiveEnv{Collector: coll})
	if err != nil {
		t.Fatal(err)
	}

	if !res.Converged() {
		t.Fatalf("gateways did not serve through the kill wave:\n%s", res.Render())
	}
	if len(res.Stages) != len(res.Params.Stages) {
		t.Fatalf("stages reported = %d want %d", len(res.Stages), len(res.Params.Stages))
	}
	// The ramp's headline claim: the big stage really emulated >= 1000
	// clients, and the kill wave really fired inside it.
	last := res.Stages[len(res.Stages)-1]
	if last.Clients < 1000 {
		t.Fatalf("final stage ran %d clients, want >= 1000", last.Clients)
	}
	if last.Killed == 0 || res.KilledTotal == 0 {
		t.Fatalf("kill wave did not fire: %+v", res)
	}
	wantKillAtLeast := (res.Params.Nodes + 3) / 4 // ceil(25%)
	if res.KilledTotal < wantKillAtLeast {
		t.Errorf("killed %d members, want >= %d (25%%)", res.KilledTotal, wantKillAtLeast)
	}
	for i, st := range res.Stages {
		if st.Survivor.OK == 0 {
			t.Errorf("stage %d: no successful samples from survivors", i+1)
		}
		if st.Survivor.Latency.Count == 0 {
			t.Errorf("stage %d: no latency observations", i+1)
		}
	}
	for _, want := range []string{"ramping load", "stage 1", "stage 2", "served through the kill wave: true"} {
		if !strings.Contains(res.Render(), want) {
			t.Fatalf("Render() missing %q:\n%s", want, res.Render())
		}
	}

	// The CSV artifact carries the long-form load schema, one cycle per
	// stage, including the per-stage totals.
	doc, ok := res.CSV()["livegateway_load"]
	if !ok {
		t.Fatal("CSV() missing livegateway_load")
	}
	key, rows, err := metrics.ParseLongCSV(doc)
	if err != nil {
		t.Fatal(err)
	}
	if key != "target" {
		t.Fatalf("CSV key column = %q want target", key)
	}
	sawMetric := map[string]bool{}
	maxCycle := -1
	for _, r := range rows {
		sawMetric[r.Metric] = true
		if r.Cycle > maxCycle {
			maxCycle = r.Cycle
		}
	}
	for _, m := range []string{"load_ok", "load_rate_limited", "load_latency_p50", "load_latency_p99", "load_freshness_p99"} {
		if !sawMetric[m] {
			t.Errorf("CSV missing metric %s", m)
		}
	}
	if maxCycle != len(res.Stages)-1 {
		t.Errorf("CSV max cycle = %d want %d", maxCycle, len(res.Stages)-1)
	}
}
