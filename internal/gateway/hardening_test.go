package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingSampler wraps fakeSampler and counts GetPeer calls, so tests
// can assert that rejected requests never reach the sampler.
type countingSampler struct {
	fakeSampler
	calls atomic.Uint64
}

func (c *countingSampler) GetPeer() (string, error) {
	c.calls.Add(1)
	return c.fakeSampler.GetPeer()
}

// TestSampleQueryHardening drives the n parser through its rejection
// table: every malformed shape must 400 without panicking and without a
// single sampler call (the serve path never samples — only the refresh
// loop does, and it is parked on a one-hour interval here).
func TestSampleQueryHardening(t *testing.T) {
	s := &countingSampler{fakeSampler: fakeSampler{peers: somePeers(8)}}
	g, err := New("127.0.0.1:0", s, Config{Refresh: time.Hour, RateRPS: 1e6, Burst: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	afterBoot := s.calls.Load()

	cases := []struct {
		query string
		want  int
	}{
		{"", http.StatusOK},
		{"?n=1", http.StatusOK},
		{"?n=8", http.StatusOK},
		{"?n=4&x=y", http.StatusOK},
		{"?x=y", http.StatusOK}, // n absent defaults to 1
		{"?n=0", http.StatusBadRequest},
		{"?n=-1", http.StatusBadRequest},
		{"?n=-99999999999999999999", http.StatusBadRequest},
		{"?n=99999999999999999999", http.StatusBadRequest}, // overflows int
		{"?n=999999999", http.StatusBadRequest},            // huge but parseable: past the batch cap
		{"?n=lots", http.StatusBadRequest},
		{"?n=1e3", http.StatusBadRequest},
		{"?n=3.5", http.StatusBadRequest},
		{"?n=", http.StatusBadRequest},
		{"?n", http.StatusBadRequest},       // bare key, no value
		{"?n=1&n=2", http.StatusBadRequest}, // duplicates are ambiguous
		{"?n=2&n=2", http.StatusBadRequest}, // even when they agree
		{"?n=%31", http.StatusBadRequest},   // percent-encoded digit: read literally
		{"?a=b&n=two&c=d", http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := getSample(t, g.Addr(), tc.query)
		if resp.StatusCode != tc.want {
			t.Errorf("%q: status = %d, want %d", tc.query, resp.StatusCode, tc.want)
		}
		if resp.StatusCode == http.StatusOK && (body.Count < 1 || len(body.Peers) != body.Count) {
			t.Errorf("%q: count = %d, peers = %v", tc.query, body.Count, body.Peers)
		}
	}
	if got := s.calls.Load(); got != afterBoot {
		t.Errorf("sampler called %d times by the serve path, want 0", got-afterBoot)
	}
}

// FuzzSampleN throws arbitrary raw query strings at the full handler:
// whatever the bytes, the response must be 200/400 (never a panic, never
// a 5xx) and the sampler must never be consulted.
func FuzzSampleN(f *testing.F) {
	s := &countingSampler{fakeSampler: fakeSampler{peers: somePeers(8)}}
	g, err := New("127.0.0.1:0", s, Config{Refresh: time.Hour, RateRPS: 1e9, Burst: 1 << 30})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = g.Close() })
	afterBoot := s.calls.Load()

	for _, seed := range []string{"", "n=1", "n=8", "n=-1", "n=999999999999999999999",
		"n=1&n=2", "n", "n=", "n=%31", "a=b&n=3&c=d", "n=+5", "n=0x10", "&&&", "n=\xff\xfe"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{
			Method:     http.MethodGet,
			URL:        &url.URL{Path: "/v1/sample", RawQuery: raw},
			RemoteAddr: "10.7.7.7:1234",
		}
		w := httptest.NewRecorder()
		g.handleSample(w, r)
		if w.Code != http.StatusOK && w.Code != http.StatusBadRequest {
			t.Fatalf("raw query %q: status = %d", raw, w.Code)
		}
		if got := s.calls.Load(); got != afterBoot {
			t.Fatalf("raw query %q reached the sampler (%d calls)", raw, got-afterBoot)
		}
	})
}

func getSampleXFF(t *testing.T, addr, xff string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/v1/sample", nil)
	if err != nil {
		t.Fatal(err)
	}
	if xff != "" {
		req.Header.Set("X-Forwarded-For", xff)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestTrustProxyHeaderSeparatesClients checks the opt-in client-emulation
// knob: with it on, distinct X-Forwarded-For addresses get distinct
// buckets; with it off (the default), the header is ignored and every
// loopback client shares the socket's bucket.
func TestTrustProxyHeaderSeparatesClients(t *testing.T) {
	g, err := New("127.0.0.1:0", &fakeSampler{peers: somePeers(4)}, Config{
		Refresh: time.Hour, RateRPS: 0.001, Burst: 2, TrustProxyHeader: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	for i := 0; i < 2; i++ {
		if resp := getSampleXFF(t, g.Addr(), "10.1.0.1"); resp.StatusCode != http.StatusOK {
			t.Fatalf("client A request %d: status = %d", i, resp.StatusCode)
		}
	}
	if resp := getSampleXFF(t, g.Addr(), "10.1.0.1"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("client A past burst: status = %d, want 429", resp.StatusCode)
	}
	// A different spoofed client still has its full burst.
	if resp := getSampleXFF(t, g.Addr(), "10.1.0.2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("client B: status = %d, want 200", resp.StatusCode)
	}
	// Proxy lists name the client first; junk falls back to the socket
	// address (which still has its own untouched bucket here).
	if resp := getSampleXFF(t, g.Addr(), "10.1.0.3, 192.168.0.1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied list: status = %d, want 200", resp.StatusCode)
	}
	if resp := getSampleXFF(t, g.Addr(), "not-an-ip"); resp.StatusCode != http.StatusOK {
		t.Fatalf("malformed header fallback: status = %d, want 200", resp.StatusCode)
	}
}

func TestTrustProxyHeaderOffIgnoresHeader(t *testing.T) {
	g, err := New("127.0.0.1:0", &fakeSampler{peers: somePeers(4)}, Config{
		Refresh: time.Hour, RateRPS: 0.001, Burst: 2, // TrustProxyHeader off
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i := 0; i < 2; i++ {
		if resp := getSampleXFF(t, g.Addr(), fmt.Sprintf("10.2.0.%d", i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, resp.StatusCode)
		}
	}
	// Distinct spoofed addresses, same socket: the shared bucket is spent.
	if resp := getSampleXFF(t, g.Addr(), "10.2.0.9"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("spoof with trust off: status = %d, want 429", resp.StatusCode)
	}
}

// TestConcurrentSetTuningAndServe is the regression test for the old
// serve path's encode-under-mutex (and any future shared-state botch):
// hammer SetTuning while clients are served; -race turns any unprotected
// access into a failure, and every accepted response must still be
// well-formed.
func TestConcurrentSetTuningAndServe(t *testing.T) {
	g, err := New("127.0.0.1:0", &fakeSampler{peers: somePeers(16)}, Config{
		Refresh: 2 * time.Millisecond, RateRPS: 1e6, Burst: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cfg := Config{Refresh: 2 * time.Millisecond, RateRPS: 1e6, Burst: 1 << 20,
				BatchSize: 16 + i%3, TrustProxyHeader: i%2 == 0}
			if err := g.SetTuning(cfg); err != nil {
				t.Errorf("SetTuning: %v", err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				resp, body := getSample(t, g.Addr(), "?n=3")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status = %d", resp.StatusCode)
					return
				}
				if body.Count != 3 || len(body.Peers) != 3 {
					t.Errorf("malformed response: %+v", body)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestServeSampleAllocFree pins the warm-cache serve path's allocation
// budget: zero for small n, whose body fits the pooled scratch's
// warmed-up capacity, and nothing beyond that reusable scratch for large n. The handler is driven directly — the net/http
// server machinery allocates per request regardless, and this test is
// about the gateway's own path.
func TestServeSampleAllocFree(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g, err := New("127.0.0.1:0", &fakeSampler{peers: somePeers(64)}, Config{
		Refresh: time.Hour, RateRPS: 1e9, Burst: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	serve := func(query string) func() {
		r := httptest.NewRequest(http.MethodGet, "/v1/sample"+query, nil)
		r.RemoteAddr = "10.3.2.1:5555"
		w := &discardRW{h: http.Header{"Content-Type": nil}}
		return func() { g.handleSample(w, r) }
	}

	for _, tc := range []struct {
		name   string
		query  string
		budget float64
	}{
		{"n=1", "", 0},
		{"n=4", "?n=4", 0},
		{"n=8", "?n=8", 0},
		{"n=32", "?n=32", 1}, // pool Get/Put may slip one under GC pressure
	} {
		f := serve(tc.query)
		f() // warm: bucket creation, pool priming
		if avg := testing.AllocsPerRun(200, f); avg > tc.budget {
			t.Errorf("%s: %.2f allocs/op, budget %.0f", tc.name, avg, tc.budget)
		}
	}
}
