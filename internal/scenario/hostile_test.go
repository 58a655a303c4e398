package scenario

import (
	"strings"
	"testing"
)

// TestHostileNetworkFloodRejectedWhileConverging is the acceptance test
// for the transport hardening layer: a live TCP cluster under connection
// flood and slowloris must reject connections beyond the listener cap
// (AcceptRejects > 0), evict the slowloris conns that did get slots, and
// still hold a fully converged overlay when the attack ends. Run under
// -race in CI.
func TestHostileNetworkFloodRejectedWhileConverging(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket attack scenario")
	}
	res, err := RunHostile(Quick, 42, LiveEnv{})
	if err != nil {
		t.Fatal(err)
	}

	if res.FloodDials == 0 {
		t.Fatal("the flooders never dialed; the attack did not run")
	}
	if res.AcceptRejects == 0 {
		t.Fatalf("listener accepted the whole flood (cap %d, %d dials): %+v",
			res.Params.MaxConns, res.FloodDials, res)
	}
	if res.KeepAliveEvictions == 0 {
		t.Fatalf("no slowloris conn was evicted: %+v", res)
	}
	if res.VictimExchanges == 0 {
		t.Fatalf("the attacked node made no gossip progress during the flood: %+v", res)
	}
	if !res.Converged() {
		t.Fatalf("overlay did not survive the attack: %d/%d complete views, %d stray entries",
			res.CompleteViews, res.Params.Nodes, res.StrayDescriptors)
	}
	for _, want := range []string{"accepts rejected", "slowloris", "converged under attack: true"} {
		if !strings.Contains(res.Render(), want) {
			t.Fatalf("Render() missing %q:\n%s", want, res.Render())
		}
	}
}

// TestHostileRegistered checks the experiment is reachable through the
// registry like every other scenario.
func TestHostileRegistered(t *testing.T) {
	d, ok := Find("hostile")
	if !ok {
		t.Fatal("hostile experiment not registered")
	}
	if d.Title == "" || d.Run == nil {
		t.Fatalf("incomplete registration: %+v", d)
	}
}
