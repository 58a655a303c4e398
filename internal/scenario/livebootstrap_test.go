package scenario

import (
	"strings"
	"testing"

	"peersampling/internal/metrics"
)

// The live bootstrap scenario must converge a real loopback TCP cluster
// from a single contact, and a collector attached to it must observe the
// cluster: every node registered, wire counters moving, views populated.
// Run under -race in CI.
func TestLiveBootstrapConvergesAndIsObservable(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket scenario")
	}
	coll := metrics.New()
	res, err := RunLiveBootstrap(Quick, 7, LiveEnv{Collector: coll})
	if err != nil {
		t.Fatal(err)
	}

	if !res.Converged() {
		t.Fatalf("cluster did not converge: %d/%d complete views", res.BootstrapComplete, res.Params.Nodes)
	}
	if res.Driver != "inproc" {
		t.Fatalf("default driver = %q", res.Driver)
	}
	if res.Exchanges == 0 || res.Served == 0 {
		t.Fatalf("no gossip happened: %+v", res)
	}
	if res.Wire.Dials == 0 || res.Wire.BytesOut == 0 {
		t.Fatalf("wire counters flat: %+v", res.Wire)
	}
	if res.Latency.Count == 0 {
		t.Fatalf("no exchange latencies recorded: %+v", res.Latency)
	}
	if p50, p99 := res.Latency.Quantile(0.5), res.Latency.Quantile(0.99); p50 <= 0 || p99 < p50 {
		t.Fatalf("latency quantiles inconsistent: p50=%v p99=%v", p50, p99)
	}
	for _, want := range []string{"complete views", "bytes on the wire", "latency p50", "inproc driver", "converged: true"} {
		if !strings.Contains(res.Render(), want) {
			t.Fatalf("Render() missing %q:\n%s", want, res.Render())
		}
	}

	if coll.Len() != res.Params.Nodes {
		t.Fatalf("collector holds %d sources want %d", coll.Len(), res.Params.Nodes)
	}
	// The nodes are closed by now but remain observable: the snapshots
	// must carry the converged views and non-zero wire counters.
	snaps := coll.Snapshot()
	var exchanges uint64
	for _, s := range snaps {
		if s.Wire == nil {
			t.Fatalf("node %s snapshot has no wire counters", s.Node)
		}
		if s.ViewSize == 0 {
			t.Errorf("node %s snapshot shows an empty view after convergence", s.Node)
		}
		exchanges += s.Exchanges
	}
	// The result's totals were taken while the cluster still gossiped;
	// the collector's final numbers can only have moved forward.
	if exchanges < res.Exchanges {
		t.Errorf("collector sees %d exchanges, result reported %d", exchanges, res.Exchanges)
	}
	if snaps[0].Node != "node00" {
		t.Errorf("first registered node = %q want node00", snaps[0].Node)
	}
}
