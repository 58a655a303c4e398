package runtime

import (
	"testing"
	"time"

	"peersampling/internal/core"
	"peersampling/internal/transport"
)

// knowsAcross counts how many descriptors in the views of groupA point at
// members of groupB.
func knowsAcross(groupA []*Node, groupB []*Node) int {
	members := make(map[string]bool, len(groupB))
	for _, n := range groupB {
		members[n.Addr()] = true
	}
	count := 0
	for _, n := range groupA {
		for _, d := range n.View() {
			if members[d.Addr] {
				count++
			}
		}
	}
	return count
}

// partition cuts every link between the two groups, both directions, as
// fault rules; healing is SetRules(nil).
func partition(groupA, groupB []*Node) []transport.FaultRule {
	var rules []transport.FaultRule
	for _, a := range groupA {
		for _, b := range groupB {
			rules = append(rules,
				transport.FaultRule{From: a.Addr(), To: b.Addr(), Cut: true},
				transport.FaultRule{From: b.Addr(), To: a.Addr(), Cut: true})
		}
	}
	return rules
}

// TestPartitionForgettingHeadVsRand reproduces the paper's Section 8
// caveat about quick self-healing: during a temporary network partition,
// head view selection makes the two sides forget each other completely
// (its strength against real failures becomes a weakness), whereas random
// view selection retains cross-partition descriptors for much longer.
func TestPartitionForgettingHeadVsRand(t *testing.T) {
	run := func(proto core.Protocol) (crossBefore, crossAfter int) {
		faults := transport.NewFaultSet(1)
		// Each side must offer more fresh peers than the view holds
		// (12 > c = 8), otherwise stale far-side entries survive head
		// selection for lack of replacements.
		nodes := buildCluster(t, transport.NewFabric(), proto, 24, func(c *Config) {
			c.ViewSize = 8
			c.Faults = faults
		})
		tickAll(nodes, 25) // converge
		left, right := nodes[:12], nodes[12:]
		crossBefore = knowsAcross(left, right)

		// Partition the network and keep gossiping for a while.
		faults.SetRules(partition(left, right))
		tickAll(nodes, 25)
		crossAfter = knowsAcross(left, right)
		return crossBefore, crossAfter
	}

	headBefore, headAfter := run(core.Newscast)
	randBefore, randAfter := run(core.Protocol{PeerSel: core.PeerRand, ViewSel: core.ViewRand, Prop: core.PushPull})

	if headBefore == 0 || randBefore == 0 {
		t.Fatalf("no cross-group knowledge before the partition: head=%d rand=%d", headBefore, randBefore)
	}
	if headAfter != 0 {
		t.Errorf("head view selection kept %d cross-partition descriptors; expected total forgetting", headAfter)
	}
	if randAfter == 0 {
		t.Errorf("random view selection forgot the other side entirely; expected retained descriptors")
	}
}

// TestCombinedServiceSurvivesPartition shows the paper's Section 10
// proposal working: coupling a fast-healing head-selection view with a
// slowly forgetting random-selection view keeps the service able to name
// peers on the far side of a healed partition.
func TestCombinedServiceSurvivesPartition(t *testing.T) {
	f := transport.NewFabric()
	factory := f.Factory("part")
	faults := transport.NewFaultSet(1)

	fast := Config{Protocol: core.Newscast, ViewSize: 8, Period: time.Hour, Seed: 1, Faults: faults}
	slow := Config{Protocol: core.Protocol{PeerSel: core.PeerRand, ViewSel: core.ViewRand, Prop: core.PushPull},
		ViewSize: 8, Period: time.Hour, Seed: 2, Faults: faults}
	svc, err := NewCombined(fast, slow, factory, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// A small population for each protocol to gossip with.
	others := buildCluster(t, f, core.Newscast, 10, func(c *Config) { c.Faults = faults })
	if err := svc.Init([]string{others[0].Addr()}); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 20; c++ {
		svc.Tick()
		tickAll(others, 1)
	}

	// Partition the combined service away from everyone and let it keep
	// gossiping into the void.
	faults.SetRules(partition([]*Node{svc.primary, svc.secondary}, others))
	for c := 0; c < 25; c++ {
		svc.Tick()
		tickAll(others, 1)
	}

	// The fast head-selection view has been aging with no fresh input; it
	// cannot rotate, but the slow random view must still name far-side
	// peers, so the combined service still answers GetPeer with a real
	// member after the partition heals.
	faults.SetRules(nil)
	foreign := map[string]bool{}
	for _, n := range others {
		foreign[n.Addr()] = true
	}
	stillKnown := 0
	for _, d := range svc.secondary.View() {
		if foreign[d.Addr] {
			stillKnown++
		}
	}
	if stillKnown == 0 {
		t.Fatal("slow view forgot the other partition entirely")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		p, err := svc.GetPeer()
		if err == nil && foreign[p] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("combined GetPeer never returned a far-side peer after healing")
		}
	}
}
