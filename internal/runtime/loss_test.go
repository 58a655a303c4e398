package runtime

import (
	"testing"

	"peersampling/internal/core"
	"peersampling/internal/transport"
)

// TestClusterConvergesUnderMessageLoss drives a cluster whose nodes
// share a lossy fault set: gossip's redundancy must still converge views, just more
// slowly, and failed exchanges must be accounted rather than fatal.
func TestClusterConvergesUnderMessageLoss(t *testing.T) {
	loss := transport.NewFaultSet(99)
	loss.SetRules([]transport.FaultRule{{From: "*", To: "*", Loss: 0.3}})
	nodes := buildCluster(t, transport.NewFabric(), core.Newscast, 12, func(c *Config) { c.Faults = loss })
	tickAll(nodes, 60)

	full := 0
	var totalFailures uint64
	for _, n := range nodes {
		if len(n.View()) == n.cfg.ViewSize {
			full++
		}
		_, _, failures, _ := n.Stats()
		totalFailures += failures
	}
	if full < len(nodes)-1 {
		t.Errorf("only %d of %d views full after 60 lossy cycles", full, len(nodes))
	}
	if totalFailures == 0 {
		t.Error("30%% loss produced zero failed exchanges — loss model not exercised")
	}
	// Connectivity of the union knows-about graph.
	known := map[string]bool{}
	for _, n := range nodes {
		for _, d := range n.View() {
			known[d.Addr] = true
		}
	}
	for _, n := range nodes {
		if !known[n.Addr()] {
			t.Errorf("%s invisible despite gossip redundancy", n.Addr())
		}
	}
}

// TestTickWithEmptyViewIsSafe ensures an uninitialised node idles without
// errors until a contact appears (the paper's init() can come late).
func TestTickWithEmptyViewIsSafe(t *testing.T) {
	f := transport.NewFabric()
	n, err := New(memConfig(core.Newscast), f.Factory("idle"))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i := 0; i < 5; i++ {
		n.Tick()
	}
	cycles, exchanges, failures, _ := n.Stats()
	if cycles != 5 || exchanges != 0 || failures != 0 {
		t.Errorf("idle ticks recorded cycles=%d exchanges=%d failures=%d", cycles, exchanges, failures)
	}
	// A late Init brings it to life.
	peer, err := New(memConfig(core.Newscast), f.Factory("late"))
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := n.Init([]string{peer.Addr()}); err != nil {
		t.Fatal(err)
	}
	n.Tick()
	if _, exchanges, _, _ := n.Stats(); exchanges != 1 {
		t.Error("exchange did not happen after late Init")
	}
}
