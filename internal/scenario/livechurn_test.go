package scenario

import (
	"strings"
	"testing"

	"peersampling/internal/metrics"
)

// The live churn scenario is the fleet harness's acceptance test at the
// scenario layer: kill waves of ≥25% of the members must leave the
// survivors converged, and respawns must bring the fleet back to full
// complete views, with the churn noise (failed exchanges) absorbed. Run
// under -race in CI. The inproc driver keeps this fast; the subprocess
// driver's equivalent run is covered by scripts/live-smoke.sh and the
// internal/fleet process tests.
func TestLiveChurnReconverges(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket churn scenario")
	}
	coll := metrics.New()
	res, err := RunLiveChurn(Quick, 11, LiveEnv{Collector: coll})
	if err != nil {
		t.Fatal(err)
	}

	if !res.Converged() {
		t.Fatalf("fleet did not re-converge through churn:\n%s", res.Render())
	}
	if len(res.Rounds) != res.Params.Rounds {
		t.Fatalf("rounds reported = %d want %d", len(res.Rounds), res.Params.Rounds)
	}
	wantKillAtLeast := (res.Params.Nodes + 3) / 4 // ceil(25%)
	for i, round := range res.Rounds {
		if round.Killed < wantKillAtLeast {
			t.Errorf("round %d killed %d members, want >= %d (25%%)", i+1, round.Killed, wantKillAtLeast)
		}
		if round.Respawned != round.Killed {
			t.Errorf("round %d respawned %d != killed %d", i+1, round.Respawned, round.Killed)
		}
	}
	if res.KilledTotal == 0 || res.FinalLive != res.Params.Nodes {
		t.Errorf("fleet accounting wrong: %+v", res)
	}
	// Killing peers mid-gossip must produce failed exchanges somewhere —
	// and they must have been absorbed, which Converged already asserted.
	if res.Failures == 0 {
		t.Logf("note: churn produced no failed exchanges this run (timing)")
	}
	for _, want := range []string{"kill and respawn", "re-converged through churn: true", "round 1", "round 2"} {
		if !strings.Contains(res.Render(), want) {
			t.Fatalf("Render() missing %q:\n%s", want, res.Render())
		}
	}

	// The collector saw the original fleet plus every respawn.
	if want := res.Params.Nodes + res.KilledTotal; coll.Len() != want {
		t.Errorf("collector holds %d sources want %d", coll.Len(), want)
	}
}
