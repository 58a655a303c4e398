package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"peersampling/internal/transport"
)

// Remote must decode the agent's JSON snapshot, and a collector over it
// must serve the scraped counters like any local source — including the
// staleness path once the agent dies.
func TestRemotePollAndCollectorIntegration(t *testing.T) {
	snap := NodeSnapshot{
		Node: "ignored", Addr: "10.1.2.3:7946", UnixMillis: 42,
		Cycles: 9, Exchanges: 8, ViewSize: 4,
		Latency: func() *transport.LatencySnapshot { l := fixedLatency(); return &l }(),
	}
	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "gone", http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode(snap)
	}))
	defer ts.Close()

	r := NewRemote(ts.URL + "/snapshot")
	got, err := r.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != 9 || got.Addr != "10.1.2.3:7946" {
		t.Fatalf("polled snapshot wrong: %+v", got)
	}
	if got.Latency == nil || got.Latency.Count != 11 {
		t.Fatalf("latency histogram lost in transit: %+v", got.Latency)
	}

	c := New()
	c.now = func() time.Time { return time.UnixMilli(5000) }
	c.RegisterPoller("fleet00", r)
	snaps := c.Snapshot()
	if snaps[0].Node != "fleet00" || snaps[0].Stale || snaps[0].UnixMillis != 5000 {
		t.Fatalf("collector snapshot wrong: %+v", snaps[0])
	}

	down.Store(true)
	snaps = c.Snapshot()
	if !snaps[0].Stale || snaps[0].Cycles != 9 {
		t.Fatalf("dead agent not replayed stale: %+v", snaps[0])
	}
	if snaps[0].UnixMillis != 5000 {
		t.Errorf("last-update moved on a dead agent: %+v", snaps[0])
	}
}

func TestRemotePollErrors(t *testing.T) {
	if _, err := NewRemote("http://127.0.0.1:1/snapshot").Poll(); err == nil {
		t.Error("unreachable endpoint accepted")
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("not json"))
	}))
	defer ts.Close()
	if _, err := NewRemote(ts.URL).Poll(); err == nil || !strings.Contains(err.Error(), "decode") {
		t.Errorf("garbage body error = %v", err)
	}
}

// roundTripFunc lets a test stand in for the HTTP transport.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// FuzzRemoteSnapshot serves arbitrary bytes as an agent's /snapshot body:
// whatever Poll decodes must render through Rows and WritePrometheus
// without a panic. The body is served from an httptest recorder in place
// of a listening server, whose connection goroutines would make coverage
// vary from run to run and keep the fuzzer minimising.
func FuzzRemoteSnapshot(f *testing.F) {
	agent := fixedCollector().Snapshot()[2] // gamma: wire, latency, view and workload
	if agent.Latency == nil || agent.App == nil {
		f.Fatalf("seed snapshot lacks a histogram or workload: %+v", agent)
	}
	seed, err := json.Marshal(agent)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// A build with one more latency bucket than this one.
	long := *agent.Latency
	long.Buckets = append(long.Buckets[:len(long.Buckets):len(long.Buckets)], 5)
	long.Count += 5
	agent.Latency = &long
	seed, err = json.Marshal(agent)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"latency": {"count": 3, "buckets": []}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		r := NewRemote("http://agent/snapshot")
		r.client.Transport = roundTripFunc(func(*http.Request) (*http.Response, error) {
			rec := httptest.NewRecorder()
			_, _ = rec.Write(body)
			return rec.Result(), nil
		})
		s, err := r.Poll()
		if err != nil {
			return
		}
		s.Rows()
		if err := WritePrometheus(io.Discard, []NodeSnapshot{s}); err != nil {
			t.Fatal(err)
		}
	})
}
