package runtime

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"peersampling/internal/core"
	"peersampling/internal/transport"
)

func memConfig(proto core.Protocol) Config {
	return Config{
		Protocol: proto,
		ViewSize: 8,
		Period:   time.Hour, // tests drive cycles with Tick
		Seed:     1,
	}
}

// buildCluster creates n nodes on a shared fabric, bootstrapped in a ring.
func buildCluster(t *testing.T, f *transport.Fabric, proto core.Protocol, n int, cfgMod func(*Config)) []*Node {
	t.Helper()
	factory := f.Factory("node")
	nodes := make([]*Node, n)
	for i := range nodes {
		cfg := memConfig(proto)
		cfg.Seed = uint64(i) + 1
		if cfgMod != nil {
			cfgMod(&cfg)
		}
		node, err := New(cfg, factory)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		nodes[i] = node
		t.Cleanup(func() { _ = node.Close() })
	}
	for i, node := range nodes {
		if err := node.Init([]string{nodes[(i+1)%n].Addr()}); err != nil {
			t.Fatalf("Init: %v", err)
		}
	}
	return nodes
}

// tickAll advances every node by the given number of synchronous cycles.
func tickAll(nodes []*Node, cycles int) {
	for c := 0; c < cycles; c++ {
		for _, n := range nodes {
			n.Tick()
		}
	}
}

func TestNewValidation(t *testing.T) {
	f := transport.NewFabric()
	if _, err := New(Config{ViewSize: 4}, f.Factory("x")); err == nil {
		t.Error("invalid protocol accepted")
	}
	if _, err := New(Config{Protocol: core.Newscast}, f.Factory("y")); err == nil {
		t.Error("zero view size accepted")
	}
	failing := func(transport.Handler) (transport.Transport, error) {
		return nil, errors.New("boom")
	}
	if _, err := New(memConfig(core.Newscast), failing); err == nil {
		t.Error("transport failure not propagated")
	}
}

func TestInitValidation(t *testing.T) {
	f := transport.NewFabric()
	n, err := New(memConfig(core.Newscast), f.Factory("n"))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Init([]string{""}); err == nil {
		t.Error("empty contact accepted")
	}
	if err := n.Init([]string{"peer-1"}); err != nil {
		t.Fatal(err)
	}
	// A second Init adds contacts without wiping the view.
	if err := n.Init([]string{"peer-2"}); err != nil {
		t.Fatal(err)
	}
	view := n.View()
	if len(view) != 2 {
		t.Errorf("view after two Inits = %v", view)
	}
}

// Init must never let a node into its own view: the bootstrap path
// delegates to core.Bootstrap (which filters self), and the merge path on
// a non-empty view used to bypass that filter entirely.
func TestInitFiltersSelf(t *testing.T) {
	f := transport.NewFabric()
	n, err := New(memConfig(core.Newscast), f.Factory("self"))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Empty-view path: a contact list of only the node itself leaves the
	// view empty rather than self-referential.
	if err := n.Init([]string{n.Addr()}); err != nil {
		t.Fatal(err)
	}
	if len(n.View()) != 0 {
		t.Fatalf("view after self-only Init = %v, want empty", n.View())
	}

	// Merge path (the regression): Init on a non-empty view used to merge
	// the node's own address straight in, so GetPeer could return self.
	if err := n.Init([]string{"peer-1"}); err != nil {
		t.Fatal(err)
	}
	if err := n.Init([]string{n.Addr(), " peer-1 ", "peer-2", "peer-2"}); err != nil {
		t.Fatal(err)
	}
	view := n.View()
	if len(view) != 2 {
		t.Errorf("view = %v, want exactly peer-1 and peer-2", view)
	}
	for _, d := range view {
		if d.Addr == n.Addr() {
			t.Fatalf("node's own address in view: %v", view)
		}
	}
	for i := 0; i < 50; i++ {
		peer, err := n.GetPeer()
		if err != nil {
			t.Fatal(err)
		}
		if peer == n.Addr() {
			t.Fatal("GetPeer returned the node itself")
		}
	}
}

func TestInitTrimsAndRejectsBlankContacts(t *testing.T) {
	f := transport.NewFabric()
	n, err := New(memConfig(core.Newscast), f.Factory("trim"))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Init([]string{"  "}); err == nil {
		t.Error("whitespace-only contact accepted")
	}
	if err := n.Init([]string{" peer-1 ", "peer-1"}); err != nil {
		t.Fatal(err)
	}
	view := n.View()
	if len(view) != 1 || view[0].Addr != "peer-1" {
		t.Errorf("view = %v, want [peer-1@0]", view)
	}
}

func TestClusterConvergesToFullViews(t *testing.T) {
	f := transport.NewFabric()
	nodes := buildCluster(t, f, core.Newscast, 16, nil)
	tickAll(nodes, 30)
	for _, n := range nodes {
		view := n.View()
		if len(view) != 8 {
			t.Errorf("%s view has %d entries want 8", n.Addr(), len(view))
		}
		for _, d := range view {
			if d.Addr == n.Addr() {
				t.Errorf("%s knows itself", n.Addr())
			}
		}
	}
	// Every node must be known by someone (no invisible nodes).
	known := map[string]bool{}
	for _, n := range nodes {
		for _, d := range n.View() {
			known[d.Addr] = true
		}
	}
	for _, n := range nodes {
		if !known[n.Addr()] {
			t.Errorf("%s is invisible after convergence", n.Addr())
		}
	}
	cycles, exchanges, failures, handled := nodes[0].Stats()
	if cycles != 30 {
		t.Errorf("cycles = %d want 30", cycles)
	}
	if exchanges == 0 || handled == 0 {
		t.Errorf("no exchanges recorded: ex=%d handled=%d", exchanges, handled)
	}
	if failures != 0 {
		t.Errorf("unexpected failures: %d", failures)
	}
}

func TestGetPeerSamplesFromView(t *testing.T) {
	f := transport.NewFabric()
	nodes := buildCluster(t, f, core.Newscast, 10, nil)
	tickAll(nodes, 20)
	n := nodes[0]
	inView := map[string]bool{}
	for _, d := range n.View() {
		inView[d.Addr] = true
	}
	for i := 0; i < 50; i++ {
		p, err := n.GetPeer()
		if err != nil {
			t.Fatal(err)
		}
		if !inView[p] {
			t.Fatalf("GetPeer returned %q not in view", p)
		}
	}
}

func TestGetPeerEmptyView(t *testing.T) {
	f := transport.NewFabric()
	n, err := New(memConfig(core.Newscast), f.Factory("solo"))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.GetPeer(); !errors.Is(err, core.ErrEmptyView) {
		t.Errorf("err = %v want ErrEmptyView", err)
	}
}

func TestDiverseSamplingAvoidsRepeats(t *testing.T) {
	f := transport.NewFabric()
	nodes := buildCluster(t, f, core.Newscast, 12, func(c *Config) { c.Diverse = true })
	tickAll(nodes, 20)
	n := nodes[0]
	viewSize := len(n.View())
	if viewSize < 4 {
		t.Fatalf("view too small for the test: %d", viewSize)
	}
	seen := map[string]bool{}
	for i := 0; i < viewSize; i++ {
		p, err := n.GetPeer()
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatalf("diverse sampling repeated %q within one view pass", p)
		}
		seen[p] = true
	}
}

// TestDiverseGetPeerDeterministic is the regression test for the Diverse
// shuffle using the package-global RNG: two nodes built with the same
// seed and the same view must emit identical GetPeer sequences, as
// Config.Seed documents.
func TestDiverseGetPeerDeterministic(t *testing.T) {
	contacts := []string{"peer-a", "peer-b", "peer-c", "peer-d", "peer-e"}
	build := func() *Node {
		f := transport.NewFabric() // separate fabrics give both nodes the address "twin-0"
		cfg := memConfig(core.Newscast)
		cfg.Diverse = true
		cfg.Seed = 42
		n, err := New(cfg, f.Factory("twin"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		if err := n.Init(contacts); err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := build(), build()
	// Three full view passes: the refill shuffle runs multiple times.
	for i := 0; i < 3*len(contacts); i++ {
		pa, err := a.GetPeer()
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.GetPeer()
		if err != nil {
			t.Fatal(err)
		}
		if pa != pb {
			t.Fatalf("call %d diverged: %q vs %q (Diverse shuffle not seeded)", i, pa, pb)
		}
	}
}

func TestFailedExchangeIsCountedAndSurvived(t *testing.T) {
	f := transport.NewFabric()
	var errs []error
	cfg := memConfig(core.Newscast)
	cfg.OnError = func(err error) { errs = append(errs, err) }
	node, err := New(cfg, f.Factory("lonely"))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Init([]string{"ghost"}); err != nil {
		t.Fatal(err)
	}
	node.Tick()
	_, _, failures, _ := node.Stats()
	if failures != 1 {
		t.Errorf("failures = %d want 1", failures)
	}
	if len(errs) != 1 {
		t.Errorf("OnError called %d times want 1", len(errs))
	}
	// The view still holds the (dead) contact: no eviction on failure.
	if len(node.View()) != 1 {
		t.Errorf("view = %v", node.View())
	}
}

func TestHealingAfterNodeDeath(t *testing.T) {
	f := transport.NewFabric()
	nodes := buildCluster(t, f, core.Newscast, 12, nil)
	tickAll(nodes, 20)
	dead := nodes[11].Addr()
	if err := nodes[11].Close(); err != nil {
		t.Fatal(err)
	}
	tickAll(nodes[:11], 40)
	// Newscast (head view selection) flushes dead descriptors quickly.
	for _, n := range nodes[:11] {
		for _, d := range n.View() {
			if d.Addr == dead {
				t.Errorf("%s still holds dead descriptor after 40 cycles", n.Addr())
			}
		}
	}
}

func TestStartStopRealTimer(t *testing.T) {
	f := transport.NewFabric()
	factory := f.Factory("timer")
	var nodes []*Node
	for i := 0; i < 4; i++ {
		cfg := memConfig(core.Newscast)
		cfg.Period = 2 * time.Millisecond
		n, err := New(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		defer n.Close()
	}
	for i, n := range nodes {
		if err := n.Init([]string{nodes[(i+1)%len(nodes)].Addr()}); err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil { // idempotent
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		cycles, exchanges, _, _ := nodes[0].Stats()
		if cycles >= 5 && exchanges >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timer cycles never ran: cycles=%d exchanges=%d", cycles, exchanges)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if err := n.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
	}
	if err := nodes[0].Start(); err == nil {
		t.Error("Start after Close accepted")
	}
}

func TestRuntimeOverTCP(t *testing.T) {
	factory := func(h transport.Handler) (transport.Transport, error) {
		return transport.ListenTCP("127.0.0.1:0", h)
	}
	var nodes []*Node
	for i := 0; i < 6; i++ {
		cfg := memConfig(core.Newscast)
		cfg.Seed = uint64(i) + 1
		n, err := New(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		defer n.Close()
	}
	for i, n := range nodes {
		if err := n.Init([]string{nodes[(i+1)%len(nodes)].Addr()}); err != nil {
			t.Fatal(err)
		}
	}
	tickAll(nodes, 15)
	for _, n := range nodes {
		if len(n.View()) < len(nodes)-1 {
			t.Errorf("%s view has %d entries want %d", n.Addr(), len(n.View()), len(nodes)-1)
		}
	}
}

func TestCombinedService(t *testing.T) {
	f := transport.NewFabric()
	factory := f.Factory("comb")
	fast := memConfig(core.Newscast) // quick healing
	slow := memConfig(core.Protocol{PeerSel: core.PeerRand, ViewSel: core.ViewRand, Prop: core.PushPull})
	svc, err := NewCombined(fast, slow, factory, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// A few plain nodes to gossip with, for each instance's protocol.
	others := buildCluster(t, f, core.Newscast, 6, nil)
	if err := svc.Init([]string{others[0].Addr()}); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 20; c++ {
		svc.Tick()
		tickAll(others, 1)
	}
	p, err := svc.GetPeer()
	if err != nil {
		t.Fatal(err)
	}
	if p == "" || p == svc.Primary().Addr() || p == svc.Secondary().Addr() {
		t.Errorf("combined GetPeer returned %q", p)
	}
	if svc.Primary().Protocol() == svc.Secondary().Protocol() {
		t.Error("combined instances share a protocol; expected two")
	}
}

// TestCombinedGetPeerIsSeeded: two services with the same seed and the
// same views sample the same peer sequence.
func TestCombinedGetPeerIsSeeded(t *testing.T) {
	contacts := make([]string, 12)
	for i := range contacts {
		contacts[i] = fmt.Sprintf("peer-%02d", i)
	}
	sample := func() []string {
		svc, err := NewCombined(memConfig(core.Newscast), memConfig(core.Lpbcast), transport.NewFabric().Factory("seeded"), 7)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		if err := svc.Primary().Init(contacts[:8]); err != nil {
			t.Fatal(err)
		}
		if err := svc.Secondary().Init(contacts[4:]); err != nil {
			t.Fatal(err)
		}
		peers := make([]string, 64)
		for i := range peers {
			if peers[i], err = svc.GetPeer(); err != nil {
				t.Fatal(err)
			}
		}
		return peers
	}
	if a, b := sample(), sample(); !slices.Equal(a, b) {
		t.Fatalf("same seed, same views, different samples:\n%v\n%v", a, b)
	}
}

func TestCombinedEmpty(t *testing.T) {
	f := transport.NewFabric()
	svc, err := NewCombined(memConfig(core.Newscast), memConfig(core.Lpbcast), f.Factory("e"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.GetPeer(); err == nil {
		t.Error("empty combined service returned a peer")
	}
}

func TestCombinedStartClose(t *testing.T) {
	f := transport.NewFabric()
	svc, err := NewCombined(memConfig(core.Newscast), memConfig(core.Lpbcast), f.Factory("sc"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHashStringStableNonZero(t *testing.T) {
	if hashString("a") == 0 || hashString("") == 0 {
		t.Error("hash must never be zero (it seeds RNG streams)")
	}
	if hashString("node-1") != hashString("node-1") {
		t.Error("hash not stable")
	}
	if hashString("node-1") == hashString("node-2") {
		t.Error("suspicious hash collision")
	}
}

func ExampleNode_GetPeer() {
	f := transport.NewFabric()
	factory := f.Factory("ex")
	a, _ := New(Config{Protocol: core.Newscast, ViewSize: 4, Period: time.Hour, Seed: 1}, factory)
	b, _ := New(Config{Protocol: core.Newscast, ViewSize: 4, Period: time.Hour, Seed: 2}, factory)
	defer a.Close()
	defer b.Close()
	_ = a.Init([]string{b.Addr()})
	_ = b.Init([]string{a.Addr()})
	a.Tick()
	peer, _ := a.GetPeer()
	fmt.Println(peer)
	// Output: ex-1
}

func TestSetTransportLimits(t *testing.T) {
	tcpFactory := func(h transport.Handler) (transport.Transport, error) {
		return transport.ListenTCP("127.0.0.1:0", h)
	}
	n, err := New(memConfig(core.Newscast), tcpFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ok, err := n.SetTransportLimits(transport.Limits{MaxConns: 7})
	if !ok || err != nil {
		t.Fatalf("SetTransportLimits over TCP: ok=%v err=%v", ok, err)
	}
	if ok, err := n.SetTransportLimits(transport.Limits{KeepAlive: -time.Second}); !ok || err == nil {
		t.Fatalf("invalid limits: ok=%v err=%v, want ok and an error", ok, err)
	}

	// The in-memory fabric has no limits; ok=false, no error.
	mem, err := New(memConfig(core.Newscast), transport.NewFabric().Factory("node"))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if ok, err := n.SetTransportLimits(transport.Limits{}); !ok || err != nil {
		t.Fatalf("default limits rejected: ok=%v err=%v", ok, err)
	}
	if ok, err := mem.SetTransportLimits(transport.Limits{MaxConns: 7}); ok || err != nil {
		t.Fatalf("fabric limits: ok=%v err=%v, want not-ok and nil", ok, err)
	}
}
