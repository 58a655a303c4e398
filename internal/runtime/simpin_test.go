package runtime

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"peersampling/internal/core"
	"peersampling/internal/sim"
	"peersampling/internal/transport"
)

// simTwin drives a sim.Network and a fleet of runtime Nodes on one Fabric
// through the same operations. Runtime node i has the address "node-i"
// and a core.Node seeded like simulator node i, and the fleet ticks in
// the order RunCycle shuffles, so every view should match the
// simulator's descriptor for descriptor.
type simTwin struct {
	t     *testing.T
	seed  uint64
	proto core.Protocol
	c     int

	w       *sim.Network
	factory transport.Factory
	nodes   []*Node
	ids     map[string]sim.NodeID
	alive   []bool
	// order replays the simulator's shuffle stream: RunCycle's initiator
	// order and KillFraction's victims.
	order *rand.Rand
}

func newSimTwin(t *testing.T, proto core.Protocol, c int, seed uint64) *simTwin {
	return &simTwin{
		t: t, seed: seed, proto: proto, c: c,
		w:       sim.MustNew(sim.Config{Protocol: proto, ViewSize: c, Seed: seed}),
		factory: transport.NewFabric().Factory("node"),
		ids:     map[string]sim.NodeID{},
		order:   rand.New(rand.NewPCG(seed, 0xC0FFEE)),
	}
}

// add joins one node bootstrapped with the given contacts at hop 0.
func (tw *simTwin) add(contacts ...sim.NodeID) {
	tw.t.Helper()
	descs := make([]core.Descriptor[sim.NodeID], len(contacts))
	addrs := make([]string, len(contacts))
	for i, c := range contacts {
		descs[i] = core.Descriptor[sim.NodeID]{Addr: c}
		addrs[i] = tw.nodes[c].Addr()
	}
	id := tw.w.Add(descs)

	n, err := New(Config{Protocol: tw.proto, ViewSize: tw.c, Period: time.Hour}, tw.factory)
	if err != nil {
		tw.t.Fatal(err)
	}
	tw.t.Cleanup(func() { _ = n.Close() })
	n.state, err = core.NewNode(n.addr, tw.proto, tw.c, rand.New(rand.NewPCG(tw.seed, uint64(id)+1)))
	if err != nil {
		tw.t.Fatal(err)
	}
	if len(addrs) > 0 {
		if err := n.Init(addrs); err != nil {
			tw.t.Fatal(err)
		}
	}
	tw.ids[n.addr] = id
	tw.nodes = append(tw.nodes, n)
	tw.alive = append(tw.alive, true)
}

// liveIDs lists the fleet's live nodes in ascending order.
func (tw *simTwin) liveIDs() []sim.NodeID {
	var live []sim.NodeID
	for id, ok := range tw.alive {
		if ok {
			live = append(live, sim.NodeID(id))
		}
	}
	return live
}

func (tw *simTwin) shuffled() []sim.NodeID {
	live := tw.liveIDs()
	tw.order.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	return live
}

// kill fails one node on both sides.
func (tw *simTwin) kill(id sim.NodeID) {
	tw.w.Kill(id)
	tw.alive[id] = false
	_ = tw.nodes[id].Close()
}

// killFraction runs the simulator's KillFraction and fails the same
// victims in the fleet, drawn independently from the mirrored stream.
func (tw *simTwin) killFraction(fraction float64) {
	tw.t.Helper()
	simVictims := tw.w.KillFraction(fraction)
	victims := tw.shuffled()
	victims = victims[:int(float64(len(victims))*fraction)]
	if !slices.Equal(victims, simVictims) {
		tw.t.Fatalf("kill victims diverged: fleet %v, simulator %v", victims, simVictims)
	}
	for _, id := range victims {
		tw.alive[id] = false
		_ = tw.nodes[id].Close()
	}
}

// cycle runs one simulator cycle and ticks the fleet in the same order,
// then compares every live view.
func (tw *simTwin) cycle(label string) {
	tw.t.Helper()
	tw.w.RunCycle()
	for _, id := range tw.shuffled() {
		tw.nodes[id].Tick()
	}
	for _, id := range tw.liveIDs() {
		if err := tw.compare(id); err != nil {
			tw.t.Fatalf("%s, cycle %d: node %d: %v", label, tw.w.Cycle(), id, err)
		}
	}
}

func (tw *simTwin) compare(id sim.NodeID) error {
	want := tw.w.Node(id).View().Descriptors()
	got := tw.nodes[id].View()
	if len(got) != len(want) {
		return fmt.Errorf("fleet view has %d entries, simulator %d", len(got), len(want))
	}
	for i, d := range got {
		if tw.ids[d.Addr] != want[i].Addr || d.Hop != want[i].Hop {
			return fmt.Errorf("entry %d: fleet %v, simulator %v", i, d, want[i])
		}
	}
	return nil
}

// TestFabricFleetMatchesSimulator pins the runtime on the in-memory
// fabric to the simulator: for every studied protocol, nodes seeded and
// ticked like sim.Network hold the same views after every cycle of a
// growing overlay, continuous churn, a 50% kill and the healing after it.
func TestFabricFleetMatchesSimulator(t *testing.T) {
	const c, seed = 30, 7
	n := 1000
	if raceEnabled {
		n = 200 // race instrumentation slows every tick several-fold
	}
	growth, churn := n/10, n/100
	for _, proto := range core.StudiedProtocols() {
		t.Run(proto.String(), func(t *testing.T) {
			tw := newSimTwin(t, proto, c, seed)
			rng := rand.New(rand.NewPCG(seed, 0xC4B2))

			// The paper's growing overlay: joins through the oldest node.
			tw.add()
			for len(tw.nodes) < n {
				for range min(growth, n-len(tw.nodes)) {
					tw.add(0)
				}
				tw.cycle("growing")
			}
			for range 10 {
				tw.cycle("settling")
			}

			// Churn: the same random nodes fail on both sides, and as
			// many join through random live contacts.
			for range 5 {
				live := tw.liveIDs()
				rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				for _, id := range live[:churn] {
					tw.kill(id)
				}
				live = live[churn:]
				for range churn {
					tw.add(live[rng.IntN(len(live))])
				}
				tw.cycle("churn")
			}

			tw.killFraction(0.5)
			for range 10 {
				tw.cycle("healing")
			}
		})
	}
}
