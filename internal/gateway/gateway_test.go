package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"peersampling/internal/core"
	"peersampling/internal/metrics"
	"peersampling/internal/stats"
)

// fakeSampler deals peers round-robin from a fixed set, like GetPeer
// over a stable view.
type fakeSampler struct {
	mu    sync.Mutex
	peers []string
	i     int
}

func (f *fakeSampler) GetPeer() (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.peers) == 0 {
		return "", core.ErrEmptyView
	}
	p := f.peers[f.i%len(f.peers)]
	f.i++
	return p, nil
}

func (f *fakeSampler) setPeers(peers []string) {
	f.mu.Lock()
	f.peers = peers
	f.mu.Unlock()
}

func somePeers(n int) []string {
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("10.0.0.%d:7946", i+1)
	}
	return peers
}

func getSample(t *testing.T, addr string, query string) (*http.Response, sampleResponse) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/sample" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body sampleResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
	}
	return resp, body
}

// serveSample drives g's sample handler directly, skipping the socket,
// for tests that need thousands of samples; it fails t on a non-200.
func serveSample(t *testing.T, g *Gateway, query string) sampleResponse {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, "/v1/sample"+query, nil)
	w := httptest.NewRecorder()
	g.handleSample(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("%s: status = %d", query, w.Code)
	}
	var body sampleResponse
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	return body
}

func TestSampleReturnsDistinctPeers(t *testing.T) {
	g, err := New("127.0.0.1:0", &fakeSampler{peers: somePeers(8)}, Config{
		Refresh: time.Hour, // the construction-time refresh fills the cache
		RateRPS: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	resp, body := getSample(t, g.Addr(), "?n=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if body.Count != 5 || len(body.Peers) != 5 {
		t.Fatalf("count = %d, peers = %v", body.Count, body.Peers)
	}
	seen := map[string]bool{}
	for _, p := range body.Peers {
		if seen[p] {
			t.Fatalf("duplicate peer %s in %v", p, body.Peers)
		}
		seen[p] = true
		if !strings.HasPrefix(p, "10.0.0.") {
			t.Fatalf("unexpected peer %q", p)
		}
	}
	if body.RefreshedUnixMS <= 0 {
		t.Fatalf("refreshed_unix_ms = %d", body.RefreshedUnixMS)
	}

	// Default n is 1.
	if _, body := getSample(t, g.Addr(), ""); body.Count != 1 {
		t.Fatalf("default count = %d", body.Count)
	}
}

// TestSamplesIndependentWithinRefresh pins that every request draws its
// own sample from the cached batch: within one refresh, n=4 requests
// return far more than any fixed set of subsets, each of n distinct
// batch members, and n=1 requests hit the batch's peers uniformly.
func TestSamplesIndependentWithinRefresh(t *testing.T) {
	const batch, requests = 64, 2000
	peers := somePeers(batch)
	g, err := New("127.0.0.1:0", &fakeSampler{peers: peers}, Config{
		BatchSize: batch,
		Refresh:   time.Hour, // one refresh generation for the whole test
		RateRPS:   1e9,
		Burst:     1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	index := make(map[string]int, batch)
	for i, p := range peers {
		index[p] = i
	}
	subsets := map[string]bool{}
	for range requests {
		body := serveSample(t, g, "?n=4")
		if body.Count != 4 || len(body.Peers) != 4 {
			t.Fatalf("count = %d, peers = %v", body.Count, body.Peers)
		}
		sel := slices.Clone(body.Peers)
		slices.Sort(sel)
		if len(slices.Compact(slices.Clone(sel))) != 4 {
			t.Fatalf("duplicate peer in %v", body.Peers)
		}
		for _, p := range sel {
			if _, ok := index[p]; !ok {
				t.Fatalf("peer %q is not in the batch", p)
			}
		}
		subsets[strings.Join(sel, ",")] = true
	}
	// C(64,4) = 635 376 subsets: 2 000 independent draws repeat a few at
	// most, while a fixed rotation of 16 could never exceed 16.
	if len(subsets) < requests*9/10 {
		t.Errorf("%d requests returned only %d distinct 4-subsets", requests, len(subsets))
	}

	counts := make([]int, batch)
	for range 100 * batch {
		body := serveSample(t, g, "?n=1")
		i, ok := index[body.Peers[0]]
		if !ok {
			t.Fatalf("peer %q is not in the batch", body.Peers[0])
		}
		counts[i]++
	}
	// Reduced chi-square over 63 degrees of freedom: mean 1, standard
	// deviation 0.18, so 2 is more than five deviations out.
	if chi := stats.ChiSquareUniform(counts); chi > 2 {
		t.Errorf("n=1 reduced chi-square = %.2f over %d peers, want <= 2", chi, batch)
	}
}

func TestSampleRejectsBadN(t *testing.T) {
	g, err := New("127.0.0.1:0", &fakeSampler{peers: somePeers(4)}, Config{
		Refresh: time.Hour, BatchSize: 16, RateRPS: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, q := range []string{"?n=0", "?n=-1", "?n=17", "?n=lots"} {
		if resp, _ := getSample(t, g.Addr(), q); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", q, resp.StatusCode)
		}
	}
	// n beyond the cache (but within the batch limit) serves what exists.
	if _, body := getSample(t, g.Addr(), "?n=16"); body.Count != 4 {
		t.Errorf("count = %d, want the whole 4-peer cache", body.Count)
	}
}

func TestSampleEmptyViewIs503(t *testing.T) {
	g, err := New("127.0.0.1:0", &fakeSampler{}, Config{Refresh: time.Hour, RateRPS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	resp, _ := getSample(t, g.Addr(), "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := g.Snapshot(0).Gateway.Unavailable; got != 1 {
		t.Fatalf("unavailable = %d", got)
	}
}

func TestRateLimitBurstIs429(t *testing.T) {
	g, err := New("127.0.0.1:0", &fakeSampler{peers: somePeers(4)}, Config{
		Refresh: time.Hour, RateRPS: 0.001, Burst: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i := 0; i < 3; i++ {
		if resp, _ := getSample(t, g.Addr(), ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst: status = %d", i, resp.StatusCode)
		}
	}
	resp, _ := getSample(t, g.Addr(), "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	snap := g.Snapshot(0).Gateway
	if snap.RateLimited != 1 || snap.Requests != 3 {
		t.Fatalf("rate_limited = %d, requests = %d", snap.RateLimited, snap.Requests)
	}

	// Raising the rate live re-admits the same client once its bucket
	// refills at the new speed (well under a second at 1000/s).
	if err := g.SetTuning(Config{Refresh: time.Hour, RateRPS: 1000, Burst: 100}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := getSample(t, g.Addr(), "")
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after SetTuning: status = %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRefreshTracksView(t *testing.T) {
	s := &fakeSampler{peers: somePeers(3)}
	g, err := New("127.0.0.1:0", s, Config{Refresh: 10 * time.Millisecond, RateRPS: 10000, Burst: 10000})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	s.setPeers([]string{"10.9.9.9:7946"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := getSample(t, g.Addr(), "")
		if len(body.Peers) == 1 && body.Peers[0] == "10.9.9.9:7946" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cache never refreshed to the new view: %v", body.Peers)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if g.Snapshot(0).Gateway.Refreshes < 2 {
		t.Error("refresh counter did not advance")
	}
}

func TestHealthzReportsDaemonStatus(t *testing.T) {
	g, err := New("127.0.0.1:0", &fakeSampler{peers: somePeers(2)}, Config{Refresh: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.SetHealth(func() any { return map[string]string{"node": "running"} })

	resp, err := http.Get("http://" + g.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var report struct {
		Status    string            `json:"status"`
		CacheSize int               `json:"cache_size"`
		Daemon    map[string]string `json:"daemon"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if report.Status != "ok" || report.CacheSize != 2 || report.Daemon["node"] != "running" {
		t.Fatalf("report = %+v", report)
	}
}

// TestSnapshotFlowsThroughPipeline registers a gateway on a collector
// and checks its counters surface in the Prometheus exposition and the
// long-form rows.
func TestSnapshotFlowsThroughPipeline(t *testing.T) {
	g, err := New("127.0.0.1:0", &fakeSampler{peers: somePeers(4)}, Config{Refresh: time.Hour, RateRPS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	getSample(t, g.Addr(), "?n=2")

	c := metrics.New()
	c.RegisterFunc("gateway", g.Snapshot)
	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exposition := b.String()
	for _, want := range []string{
		`peersampling_gateway_requests_total{node="gateway"`,
		`peersampling_gateway_peers_served_total{node="gateway"`,
		`peersampling_gateway_cache_size{node="gateway"`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %s", want)
		}
	}

	snaps := c.Snapshot()
	if len(snaps) != 1 || snaps[0].Gateway == nil {
		t.Fatalf("snapshots = %+v", snaps)
	}
	var foundServed bool
	for _, row := range snaps[0].Rows() {
		if row.Metric == "gateway_peers_served" && row.Value == 2 {
			foundServed = true
		}
	}
	if !foundServed {
		t.Errorf("rows missing gateway_peers_served=2: %+v", snaps[0].Rows())
	}
}

func TestLimiterPrunesRecoveredBuckets(t *testing.T) {
	now := time.Unix(0, 0)
	l := newRateLimiter(1, 2, func() time.Time { return now })
	// Pruning is per shard, so the test fills one shard to its threshold:
	// keys that hash to the same shard as the late-arriving trigger key.
	const trigger = "10.99.99.99"
	target := l.shard(trigger)
	var keys []string
	for i := 0; len(keys) < limiterPruneThreshold/limiterShards; i++ {
		k := fmt.Sprintf("10.0.%d.%d", i/256, i%256)
		if l.shard(k) == target {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		l.allow(k)
	}
	if l.clients() != len(keys) {
		t.Fatalf("clients = %d, want %d", l.clients(), len(keys))
	}
	// All buckets recover after 2s (burst 2 at 1/s); the next new client
	// in the full shard triggers the sweep.
	now = now.Add(3 * time.Second)
	l.allow(trigger)
	if got := l.clients(); got != 1 {
		t.Fatalf("clients after prune = %d, want 1", got)
	}
}

func TestLimiterShardsIndependently(t *testing.T) {
	now := time.Unix(0, 0)
	l := newRateLimiter(1, 1, func() time.Time { return now })
	// Distinct clients land in their own buckets regardless of shard:
	// each gets its single burst token, then a 429.
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("10.1.%d.%d", i/256, i%256)
		if ok, _ := l.allow(key); !ok {
			t.Fatalf("first request for %s denied", key)
		}
		if ok, _ := l.allow(key); ok {
			t.Fatalf("second request for %s allowed past burst 1", key)
		}
	}
	if got := l.clients(); got != 64 {
		t.Fatalf("clients = %d, want 64", got)
	}
	// setRate reaches every shard: raising the burst re-admits everyone
	// after refill.
	l.setRate(1000, 10)
	now = now.Add(time.Second)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("10.1.%d.%d", i/256, i%256)
		if ok, _ := l.allow(key); !ok {
			t.Fatalf("request for %s denied after setRate", key)
		}
	}
}
