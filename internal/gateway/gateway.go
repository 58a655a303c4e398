package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"peersampling/internal/loop"
	"peersampling/internal/metrics"
	"peersampling/internal/transport"
)

// Sampler is the slice of the peer sampling service the gateway needs:
// runtime.Node implements it. GetPeer must be safe for concurrent use.
type Sampler interface {
	GetPeer() (string, error)
}

// Config tunes a Gateway. A zero field selects its DefaultConfig value;
// every field is hot-swappable on a running gateway via SetTuning. Each
// field's cfg tag is its key under the daemon config's "gateway"
// section.
type Config struct {
	// BatchSize is how many distinct peers each cache refresh targets.
	BatchSize int `cfg:"batch_size" reload:"hot"`
	// Refresh is the cache refresh interval; at least a millisecond.
	Refresh time.Duration `cfg:"refresh" reload:"hot"`
	// RateRPS is the per-client token refill rate (requests/second).
	RateRPS float64 `cfg:"rate_rps" reload:"hot"`
	// Burst is the per-client token bucket capacity.
	Burst int `cfg:"burst" reload:"hot"`
	// TrustProxyHeader keys the rate limiter on the first address of a
	// valid X-Forwarded-For header instead of the socket address. Enable
	// only behind a trusted proxy — the header is client-controlled
	// otherwise. (It is also what lets a loopback load generator emulate
	// distinct clients against one gateway.)
	TrustProxyHeader bool `cfg:"trust_proxy_header" reload:"hot"`
}

// DefaultConfig is the tuning a zero Config field selects: 64 peers per
// refresh, refreshed every second, 5 requests/second per client with a
// burst of 10.
func DefaultConfig() Config {
	return Config{BatchSize: 64, Refresh: time.Second, RateRPS: 5, Burst: 10}
}

// Validate reports the first rule c breaks, naming the field by its cfg
// key ("refresh: 500µs is below the 1ms minimum"); the zero value is
// valid. New and SetTuning enforce the same rules.
func (c Config) Validate() error { return c.fill() }

// fill validates c and resolves zero values to defaults.
func (c *Config) fill() error {
	def := DefaultConfig()
	if c.BatchSize == 0 {
		c.BatchSize = def.BatchSize
	}
	if c.Refresh == 0 {
		c.Refresh = def.Refresh
	}
	if c.RateRPS == 0 {
		c.RateRPS = def.RateRPS
	}
	if c.Burst == 0 {
		c.Burst = def.Burst
	}
	switch {
	case c.BatchSize < 0:
		return fmt.Errorf("batch_size: must not be negative, got %d", c.BatchSize)
	case c.Refresh < time.Millisecond:
		return fmt.Errorf("refresh: %v is below the 1ms minimum", c.Refresh)
	case c.RateRPS < 0:
		return fmt.Errorf("rate_rps: must not be negative, got %v", c.RateRPS)
	case c.Burst < 0:
		return fmt.Errorf("burst: must not be negative, got %d", c.Burst)
	}
	return nil
}

// Gateway is the light-client sampling API: an HTTP server answering
// GET /v1/sample?n=K with K distinct peer addresses from a periodically
// refreshed cache, and GET /healthz with a status report. Construct with
// New; the server runs until Close.
//
// The serve path is lock-free: each refresh publishes an immutable
// sampleCache behind an atomic pointer, holding every peer pre-encoded
// as a JSON fragment. A request draws its own uniform subset and
// assembles the body from those fragments in pooled scratch, so it
// takes no mutex and allocates nothing in the steady state.
type Gateway struct {
	sampler Sampler
	ln      net.Listener
	srv     *http.Server
	limiter *rateLimiter
	now     func() time.Time

	// cache is the immutable published sample state; never nil after New.
	cache atomic.Pointer[sampleCache]
	// trustProxy mirrors Config.TrustProxyHeader for lock-free reads on
	// the serve path.
	trustProxy atomic.Bool

	// latency records the service time of successful sample responses.
	latency transport.LatencyHistogram

	// mu guards the cold state only: tuning and the health callback.
	mu     sync.Mutex
	cfg    Config
	health func() any

	requests    atomic.Uint64
	peersServed atomic.Uint64
	rateLimited atomic.Uint64
	unavailable atomic.Uint64
	refreshes   atomic.Uint64

	refresher *loop.Loop
}

// New starts a gateway on addr (e.g. "127.0.0.1:8080", or ":0" for an
// ephemeral port reported by Addr), sampling peers from sampler. The
// first cache refresh runs before New returns, so a gateway over a
// bootstrapped node can serve immediately.
func New(addr string, sampler Sampler, cfg Config) (*Gateway, error) {
	if sampler == nil {
		return nil, errors.New("gateway: nil sampler")
	}
	if err := cfg.fill(); err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: listen %s: %w", addr, err)
	}
	g := &Gateway{
		sampler: sampler,
		ln:      ln,
		cfg:     cfg,
		now:     time.Now,
	}
	g.trustProxy.Store(cfg.TrustProxyHeader)
	g.limiter = newRateLimiter(cfg.RateRPS, cfg.Burst, func() time.Time { return g.now() })
	g.refresh()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sample", g.handleSample)
	mux.HandleFunc("/healthz", g.handleHealthz)
	// The timeouts mirror the metrics server's: small responses to many
	// clients, so no phase may pin a goroutine (see metrics.NewServer).
	g.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      15 * time.Second,
		IdleTimeout:       time.Minute,
	}
	go func() { _ = g.srv.Serve(ln) }()
	g.refresher = loop.Every(g.refreshInterval, func() bool { g.refresh(); return true })
	return g, nil
}

// Addr returns the bound listen address.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// SetHealth installs a callback whose result is embedded in /healthz
// responses under "daemon" — the hook the daemon manager uses to expose
// its aggregated plugin report through the gateway's port.
func (g *Gateway) SetHealth(fn func() any) {
	g.mu.Lock()
	g.health = fn
	g.mu.Unlock()
}

// SetTuning replaces the gateway's tuning live: batch size and refresh
// interval apply from the next refresh round, rate, burst and the proxy
// trust to the next request. The listen address is fixed at construction.
func (g *Gateway) SetTuning(cfg Config) error {
	if err := cfg.fill(); err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	g.mu.Lock()
	g.cfg = cfg
	g.mu.Unlock()
	g.trustProxy.Store(cfg.TrustProxyHeader)
	g.limiter.setRate(cfg.RateRPS, cfg.Burst)
	return nil
}

// Close stops the server and the refresh loop. In-flight requests are
// aborted; sample responses have nothing worth draining.
func (g *Gateway) Close() error {
	g.refresher.Stop()
	return g.srv.Close()
}

// refreshInterval is the refresher's period, read each round so a
// SetTuning refresh interval applies from the next round.
func (g *Gateway) refreshInterval() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cfg.Refresh
}

// refresh draws a fresh batch of distinct peers through GetPeer and
// publishes it as a new immutable sampleCache. GetPeer returns one view
// entry per call, so the refresh loops until it has BatchSize distinct
// addresses or stops learning new ones; a node whose view is smaller
// than the batch target simply yields a smaller batch. An empty view
// empties the cache — serving stale peers from a node that lost its
// whole view would hide a partition from clients.
func (g *Gateway) refresh() {
	g.mu.Lock()
	target := g.cfg.BatchSize
	g.mu.Unlock()

	seen := make(map[string]bool, target)
	batch := make([]string, 0, target)
	misses := 0
	for len(batch) < target && misses < 3*target+8 {
		peer, err := g.sampler.GetPeer()
		if err != nil {
			break // empty view: serve what this round gathered (nothing)
		}
		if seen[peer] {
			misses++
			continue
		}
		seen[peer] = true
		batch = append(batch, peer)
	}
	g.refreshes.Add(1)
	g.cache.Store(newSampleCache(batch, target, g.now()))
}

// Fixed body pieces of the /v1/sample JSON shape (see sampleResponse).
var (
	bodyPrefix = []byte(`{"peers":[`)
	bodyCount  = []byte(`],"count":`)
)

// sampleCache is one published refresh result. It is immutable after
// construction, so the serve path may read it without synchronization.
type sampleCache struct {
	peers           []string
	target          int // batch target at refresh time; the n validation cap
	refreshedAt     time.Time
	refreshedUnixMS int64

	// frags[i] is peers[i] pre-encoded as a JSON string, the building
	// block of every response; suffix closes every body after the count
	// value.
	frags  [][]byte
	suffix []byte
}

// newSampleCache pre-encodes the batch's per-peer fragments and the body
// suffix. The cost — one small encode per peer — is paid once per
// refresh interval, not per request.
func newSampleCache(peers []string, target int, now time.Time) *sampleCache {
	if target < 1 {
		target = 1
	}
	c := &sampleCache{
		peers:           peers,
		target:          target,
		refreshedAt:     now,
		refreshedUnixMS: now.UnixMilli(),
	}
	c.suffix = fmt.Appendf(nil, ",\"refreshed_unix_ms\":%d}\n", c.refreshedUnixMS)
	c.frags = make([][]byte, len(peers))
	for i, p := range peers {
		frag, err := json.Marshal(p)
		if err != nil { // a string cannot fail to marshal; seatbelt only
			frag = []byte(`""`)
		}
		c.frags[i] = frag
	}
	return c
}

// scratch is the per-request workspace of the serve path, pooled so the
// steady state allocates nothing.
type scratch struct {
	buf []byte
	idx []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// appendSample writes a response of n peers into s.buf: a fresh partial
// Fisher–Yates over the peer indices, so each request draws a uniform
// n-subset independently of every other, with the peers copied from the
// cache's fragments. n must be in [1, len(peers)].
func (c *sampleCache) appendSample(s *scratch, n int) {
	s.idx = s.idx[:0]
	for i := range c.peers {
		s.idx = append(s.idx, i)
	}
	b := append(s.buf[:0], bodyPrefix...)
	for i := 0; i < n; i++ {
		j := i + rand.IntN(len(s.idx)-i)
		s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, c.frags[s.idx[i]]...)
	}
	b = append(b, bodyCount...)
	b = strconv.AppendInt(b, int64(n), 10)
	s.buf = append(b, c.suffix...)
}

// sampleResponse is the /v1/sample JSON body. Serving assembles bytes of
// this exact shape from pre-encoded fragments; the struct itself is the
// decode side for clients and tests. RefreshedUnixMS identifies the cache generation the
// sample came from, so a client can judge freshness against its own
// clock without the server computing a per-request age.
type sampleResponse struct {
	Peers           []string `json:"peers"`
	Count           int      `json:"count"`
	RefreshedUnixMS int64    `json:"refreshed_unix_ms"`
}

// parseSampleN extracts the n query parameter from a raw query string
// without allocating. present reports whether n appeared at all; ok=false
// means the request must be rejected (non-integer, out of range for int,
// empty value, or a duplicated n parameter — ambiguity is rejected, not
// resolved). Values are read literally: a percent-encoded digit is not an
// integer here, which only tightens validation.
func parseSampleN(raw string) (n int, present, ok bool) {
	for len(raw) > 0 {
		var seg string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			seg, raw = raw[:i], raw[i+1:]
		} else {
			seg, raw = raw, ""
		}
		var key, val string
		if j := strings.IndexByte(seg, '='); j >= 0 {
			key, val = seg[:j], seg[j+1:]
		} else {
			key = seg
		}
		if key != "n" {
			continue
		}
		if present {
			return 0, true, false
		}
		present = true
		v, err := strconv.Atoi(val)
		if err != nil {
			return 0, true, false
		}
		n = v
	}
	return n, present, true
}

// retryAfterSeconds renders the limiter's wait as the integral
// Retry-After header value: rounded up to the next whole second (the
// header has no finer unit, and rounding down would invite a guaranteed
// second 429), never below 1.
func retryAfterSeconds(wait time.Duration) int {
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (g *Gateway) handleSample(w http.ResponseWriter, r *http.Request) {
	start := g.now()
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	c := g.cache.Load()
	// The batch target rides the cache snapshot, so validation stays
	// lock-free; a SetTuning batch change takes effect with its first
	// refresh, which is also when it changes what can be served.
	n, present, ok := parseSampleN(r.URL.RawQuery)
	if !ok || (present && (n < 1 || n > c.target)) {
		http.Error(w, fmt.Sprintf("n must be an integer in [1,%d]", c.target), http.StatusBadRequest)
		return
	}
	if !present {
		n = 1
	}
	if allowed, retryAfter := g.limiter.allow(g.clientKey(r)); !allowed {
		g.rateLimited.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
		return
	}
	if len(c.peers) == 0 {
		g.unavailable.Add(1)
		http.Error(w, "no peers available", http.StatusServiceUnavailable)
		return
	}
	if n > len(c.peers) {
		n = len(c.peers)
	}
	setJSONContentType(w.Header())
	s := scratchPool.Get().(*scratch)
	c.appendSample(s, n)
	_, _ = w.Write(s.buf)
	scratchPool.Put(s)
	g.requests.Add(1)
	g.peersServed.Add(uint64(n))
	g.latency.Observe(g.now().Sub(start))
}

// setJSONContentType sets Content-Type without http.Header.Set's
// per-call []string allocation: the value slice is shared, and a header
// map that already carries the key (a keep-alive connection's reused
// header storage) is left alone.
var jsonContentType = []string{"application/json"}

func setJSONContentType(h http.Header) {
	if _, exists := h["Content-Type"]; !exists {
		h["Content-Type"] = jsonContentType
	}
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	c := g.cache.Load()
	g.mu.Lock()
	health := g.health
	g.mu.Unlock()
	report := map[string]any{
		"status":       "ok",
		"cache_size":   len(c.peers),
		"cache_age_ms": g.now().Sub(c.refreshedAt).Milliseconds(),
	}
	if len(c.peers) == 0 {
		report["status"] = "empty-cache"
	}
	if health != nil {
		report["daemon"] = health()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(report)
}

// clientKey identifies the client for rate limiting: the remote IP,
// ignoring the ephemeral port so one host's connections share a bucket.
// With TrustProxyHeader on, a well-formed X-Forwarded-For wins: the
// first (client-most) address, validated as an IP so junk cannot mint
// arbitrary bucket keys; malformed headers fall back to the socket.
func (g *Gateway) clientKey(r *http.Request) string {
	if g.trustProxy.Load() {
		if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
			first := xff
			if i := strings.IndexByte(first, ','); i >= 0 {
				first = first[:i]
			}
			first = strings.TrimSpace(first)
			if _, err := netip.ParseAddr(first); err == nil {
				return first
			}
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// Snapshot reports the gateway's counters in the metrics pipeline's
// common shape, for Collector.RegisterFunc. The refresh count rides the
// Cycles column so the dumper's cycle-granularity sampling applies to
// gateway sources unchanged.
func (g *Gateway) Snapshot(unixMillis int64) metrics.NodeSnapshot {
	c := g.cache.Load()
	refreshes := g.refreshes.Load()
	lat := g.latency.Snapshot()
	return metrics.NodeSnapshot{
		Addr:       g.Addr(),
		UnixMillis: unixMillis,
		Cycles:     refreshes,
		Gateway: &metrics.GatewaySnapshot{
			Requests:        g.requests.Load(),
			PeersServed:     g.peersServed.Load(),
			RateLimited:     g.rateLimited.Load(),
			Unavailable:     g.unavailable.Load(),
			Refreshes:       refreshes,
			Clients:         g.limiter.clients(),
			CacheSize:       len(c.peers),
			CacheAgeSeconds: g.now().Sub(c.refreshedAt).Seconds(),
			Latency:         &lat,
		},
	}
}
