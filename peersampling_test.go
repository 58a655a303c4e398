package peersampling_test

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"peersampling"
)

func TestFacadeProtocolHelpers(t *testing.T) {
	if got := peersampling.Newscast().String(); got != "(rand,head,pushpull)" {
		t.Errorf("Newscast = %s", got)
	}
	if got := peersampling.Lpbcast().String(); got != "(rand,rand,push)" {
		t.Errorf("Lpbcast = %s", got)
	}
	p, err := peersampling.ParseProtocol("(tail,rand,push)")
	if err != nil {
		t.Fatal(err)
	}
	if p.PeerSel != peersampling.PeerTail || p.ViewSel != peersampling.ViewRand || p.Prop != peersampling.Push {
		t.Errorf("parsed %+v", p)
	}
	if len(peersampling.AllProtocols()) != 27 {
		t.Error("AllProtocols != 27")
	}
	if len(peersampling.StudiedProtocols()) != 8 {
		t.Error("StudiedProtocols != 8")
	}
}

func TestFacadeNodeLifecycle(t *testing.T) {
	fabric := peersampling.NewFabric()
	factory := fabric.Factory("fx")
	a, err := peersampling.NewNode(peersampling.NodeConfig{
		Protocol: peersampling.Newscast(),
		ViewSize: 4,
		Period:   time.Hour,
		Seed:     1,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := peersampling.NewNode(peersampling.NodeConfig{
		Protocol: peersampling.Newscast(),
		ViewSize: 4,
		Period:   time.Hour,
		Seed:     2,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Init([]string{b.Addr()}); err != nil {
		t.Fatal(err)
	}
	a.Tick()
	peer, err := a.GetPeer()
	if err != nil {
		t.Fatal(err)
	}
	if peer != b.Addr() {
		t.Errorf("GetPeer = %q want %q", peer, b.Addr())
	}
	// b learned about a through the pushpull exchange.
	found := false
	for _, d := range b.View() {
		if d.Addr == a.Addr() {
			found = true
		}
	}
	if !found {
		t.Error("passive side did not learn the initiator")
	}
}

func TestFacadeSimulation(t *testing.T) {
	cfg := peersampling.SimConfig{Protocol: peersampling.Newscast(), ViewSize: 15, Seed: 3}
	w, err := peersampling.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 {
		t.Error("fresh simulation not empty")
	}
	overlay := peersampling.NewRandomOverlay(cfg, 200)
	overlay.Run(10)
	obs := overlay.Observe(peersampling.MetricsConfig{PathSources: 10, ClusteringSample: 50, Seed: 4})
	if obs.LiveNodes != 200 || obs.Components != 1 {
		t.Errorf("random overlay observation %+v", obs)
	}
	lattice := peersampling.NewLatticeOverlay(cfg, 100)
	snap := lattice.TakeSnapshot()
	lo, hi := snap.Graph.MinMaxDegree()
	// With odd c the one-sided extra neighbour is mirrored by the reverse
	// direction, so every undirected degree is c+1.
	if lo != 16 || hi != 16 {
		t.Errorf("lattice degrees [%d,%d] want exactly 16", lo, hi)
	}
	if _, err := peersampling.NewSimulation(peersampling.SimConfig{}); err == nil {
		t.Error("invalid sim config accepted")
	}
}

func TestFacadeCombined(t *testing.T) {
	fabric := peersampling.NewFabric()
	svc, err := peersampling.NewCombined(
		peersampling.NodeConfig{Protocol: peersampling.Newscast(), ViewSize: 4, Period: time.Hour},
		peersampling.NodeConfig{Protocol: peersampling.Lpbcast(), ViewSize: 4, Period: time.Hour},
		fabric.Factory("cmb"), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var _ peersampling.Service = svc
}

func TestFacadeTCPFactory(t *testing.T) {
	node, err := peersampling.NewNode(peersampling.NodeConfig{
		Protocol: peersampling.Newscast(),
		ViewSize: 4,
		Period:   time.Hour,
	}, peersampling.TCPFactory("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if node.Addr() == "" || node.Addr() == "127.0.0.1:0" {
		t.Errorf("TCP address not resolved: %q", node.Addr())
	}
}

// TestFacadeRealBackendsGossip runs a small gossip cluster over every
// registered wire backend and checks views converge and wire counters
// advance.
func TestFacadeRealBackendsGossip(t *testing.T) {
	factories := map[string]func() peersampling.TransportFactory{
		"tcp":        func() peersampling.TransportFactory { return peersampling.TCPFactory("127.0.0.1:0") },
		"tcp-pooled": func() peersampling.TransportFactory { return peersampling.PooledTCPFactory("127.0.0.1:0") },
		"udp":        func() peersampling.TransportFactory { return peersampling.UDPFactory("127.0.0.1:0") },
	}
	for name, mk := range factories {
		t.Run(name, func(t *testing.T) {
			var nodes []*peersampling.Node
			for i := 0; i < 4; i++ {
				n, err := peersampling.NewNode(peersampling.NodeConfig{
					Protocol: peersampling.Newscast(),
					ViewSize: 4,
					Period:   time.Hour,
					Seed:     uint64(i) + 1,
				}, mk())
				if err != nil {
					t.Fatal(err)
				}
				defer n.Close()
				nodes = append(nodes, n)
			}
			for i, n := range nodes {
				if err := n.Init([]string{nodes[(i+1)%len(nodes)].Addr()}); err != nil {
					t.Fatal(err)
				}
			}
			for c := 0; c < 10; c++ {
				for _, n := range nodes {
					n.Tick()
				}
			}
			for _, n := range nodes {
				if len(n.View()) < len(nodes)-1 {
					t.Errorf("%s view has %d entries want %d", n.Addr(), len(n.View()), len(nodes)-1)
				}
				stats, ok := n.TransportStats()
				if !ok {
					t.Fatalf("%s backend reports no transport stats", name)
				}
				if stats.BytesOut == 0 || stats.BytesIn == 0 {
					t.Errorf("%s wire counters flat: %+v", name, stats)
				}
				if name == "tcp-pooled" && stats.Reuses == 0 {
					t.Errorf("pooled backend never reused a connection: %+v", stats)
				}
			}
		})
	}
}

func TestFacadeTransportRegistry(t *testing.T) {
	names := peersampling.TransportBackends()
	if len(names) < 3 {
		t.Fatalf("backends = %v", names)
	}
	factory, err := peersampling.NewTransportFactory("tcp-pooled", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := peersampling.NewNode(peersampling.NodeConfig{
		Protocol: peersampling.Newscast(),
		ViewSize: 4,
		Period:   time.Hour,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := peersampling.NewTransportFactory("nope", "127.0.0.1:0"); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestFacadeObservability drives the exported metrics surface the way a
// deployment would: a collector over a live fabric pair, scraped over
// HTTP and dumped as CSV.
func TestFacadeObservability(t *testing.T) {
	fabric := peersampling.NewFabric()
	cfg := peersampling.NodeConfig{
		Protocol: peersampling.Newscast(),
		ViewSize: 4,
		Period:   time.Hour,
	}
	a, err := peersampling.NewNode(cfg, fabric.Factory("a"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := peersampling.NewNode(cfg, fabric.Factory("b"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Init([]string{b.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := b.Init([]string{a.Addr()}); err != nil {
		t.Fatal(err)
	}
	a.Tick()
	b.Tick()

	coll := peersampling.NewCollector()
	coll.Register("a", a)
	coll.Register("b", b)

	srv, err := peersampling.NewMetricsServer(coll, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `peersampling_cycles_total{node="a"`) {
		t.Errorf("scrape missing node a cycles:\n%s", body)
	}

	var buf bytes.Buffer
	dumper := peersampling.NewMetricsDumper(coll, &buf)
	if err := dumper.Dump(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "node,cycle,metric,value\n") {
		t.Errorf("dump header wrong:\n%s", buf.String())
	}
	snaps := coll.Snapshot()
	if len(snaps) != 2 || snaps[0].Cycles != 1 {
		t.Errorf("snapshots wrong: %+v", snaps)
	}
}
