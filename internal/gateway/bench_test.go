package gateway

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// discardRW is a minimal ResponseWriter for driving the handler directly:
// benchmarking through a real net/http server would measure the TCP stack,
// not the serve path. The header map is pre-populated the way a live
// server reuses its header storage across a keep-alive connection.
type discardRW struct {
	h http.Header
}

func (w *discardRW) Header() http.Header         { return w.h }
func (w *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardRW) WriteHeader(int)             {}

func benchGateway(b *testing.B) *Gateway {
	b.Helper()
	g, err := New("127.0.0.1:0", &fakeSampler{peers: somePeers(64)}, Config{
		Refresh: time.Hour, // effectively never: the construction refresh warms the cache
		RateRPS: 1e9,
		Burst:   1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = g.Close() })
	return g
}

// BenchmarkGatewayServe measures the warm-cache /v1/sample path for a
// small n: a fresh 4-subset drawn and assembled per request.
func BenchmarkGatewayServe(b *testing.B) {
	g := benchGateway(b)
	r := httptest.NewRequest(http.MethodGet, "/v1/sample?n=4", nil)
	r.RemoteAddr = "10.1.2.3:44321"
	w := &discardRW{h: http.Header{"Content-Type": nil}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.handleSample(w, r)
	}
}

// BenchmarkGatewayServeAssembled measures the same path at a large n,
// where copying the 32 pre-encoded peer fragments into the pooled buffer
// dominates the subset draw.
func BenchmarkGatewayServeAssembled(b *testing.B) {
	g := benchGateway(b)
	r := httptest.NewRequest(http.MethodGet, "/v1/sample?n=32", nil)
	r.RemoteAddr = "10.1.2.3:44321"
	w := &discardRW{h: http.Header{"Content-Type": nil}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.handleSample(w, r)
	}
}
