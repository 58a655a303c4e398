package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Fabric is an in-memory network connecting any number of endpoints in one
// process: the failure-injection substrate for runtime tests and
// single-process demos. Its only fault model is a per-link FaultInjector
// (WithFaults, SetFaults), the same FaultRule shape the real transports
// read: Loss rules drop exchanges, Latency rules delay them, and Cut
// rules on every crossing link make a partition.
type Fabric struct {
	mu        sync.RWMutex
	endpoints map[string]*memEndpoint
	faults    FaultInjector
}

// FabricOption configures a Fabric.
type FabricOption func(*Fabric)

// WithFaults installs a per-link fault injector (usually a *FaultSet):
// directed cut/loss/latency rules applied to every exchange.
func WithFaults(fi FaultInjector) FabricOption {
	return func(f *Fabric) { f.faults = fi }
}

// NewFabric returns an empty in-memory network.
func NewFabric(opts ...FabricOption) *Fabric {
	f := &Fabric{endpoints: make(map[string]*memEndpoint)}
	for _, o := range opts {
		o(f)
	}
	return f
}

// Endpoint registers a new address served by h and returns its transport.
// Registering an address twice is an error.
func (f *Fabric) Endpoint(addr string, h Handler) (Transport, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler for %q", addr)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.endpoints[addr]; dup {
		return nil, fmt.Errorf("transport: address %q already registered", addr)
	}
	ep := &memEndpoint{fabric: f, addr: addr, handler: h}
	f.endpoints[addr] = ep
	return ep, nil
}

// Factory returns a Factory that allocates sequentially numbered endpoint
// addresses with the given prefix ("prefix-0", "prefix-1", ...).
func (f *Fabric) Factory(prefix string) Factory {
	var next int
	var mu sync.Mutex
	return func(h Handler) (Transport, error) {
		mu.Lock()
		addr := fmt.Sprintf("%s-%d", prefix, next)
		next++
		mu.Unlock()
		return f.Endpoint(addr, h)
	}
}

// SetFaults installs (or, with nil, removes) a per-link fault injector
// at runtime — the Fabric form of the chaos hook the real transports
// read from the process-global Faults set.
func (f *Fabric) SetFaults(fi FaultInjector) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = fi
}

// Remove unregisters an address (simulating a crashed node whose peers
// still hold its descriptor).
func (f *Fabric) Remove(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.endpoints, addr)
}

// lookup resolves a destination endpoint for a sender and applies the
// per-link faults. It returns the endpoint and any injected latency, or
// a reason error when undeliverable.
func (f *Fabric) lookup(from, to string) (*memEndpoint, time.Duration, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	dst, ok := f.endpoints[to]
	if !ok || dst.closed.Load() {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	if f.faults == nil {
		return dst, 0, nil
	}
	d, err := f.faults.Inject(from, to)
	return dst, d, err
}

// memEndpoint implements Transport over a Fabric.
type memEndpoint struct {
	fabric  *Fabric
	addr    string
	handler Handler
	apps    appHandlerBox
	closed  atomic.Bool
}

var (
	_ Transport  = (*memEndpoint)(nil)
	_ AppCarrier = (*memEndpoint)(nil)
)

// Addr implements Transport.
func (e *memEndpoint) Addr() string { return e.addr }

// reach is the front half of every fabric exchange, gossip or app: the
// closed check, the lookup with its faults, the injected latency and the
// context check. It returns the endpoint to deliver to.
func (e *memEndpoint) reach(ctx context.Context, addr string) (*memEndpoint, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	dst, latency, err := e.fabric.lookup(e.addr, addr)
	if err != nil {
		return nil, err
	}
	if err := sleepCtx(ctx, latency); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return dst, nil
}

// Exchange implements Transport.
func (e *memEndpoint) Exchange(ctx context.Context, addr string, req Request) (Response, bool, error) {
	dst, err := e.reach(ctx, addr)
	if err != nil {
		return Response{}, false, err
	}
	// Deliver deep copies: in-process peers must not share buffer memory,
	// exactly as a real network would not.
	req.Buffer = append([]Descriptor(nil), req.Buffer...)
	resp, ok := dst.handler(req)
	if !ok || !req.WantReply {
		return Response{}, false, nil
	}
	resp.Buffer = append([]Descriptor(nil), resp.Buffer...)
	return resp, true, nil
}

// SetAppHandler implements AppCarrier.
func (e *memEndpoint) SetAppHandler(h AppHandler) { e.apps.store(h) }

// ExchangeApp implements AppCarrier. A destination with no app handler
// swallows the payload (a pull reports ok=false), matching the real
// transports where such frames are dropped.
func (e *memEndpoint) ExchangeApp(ctx context.Context, addr string, msg AppMessage) (AppMessage, bool, error) {
	dst, err := e.reach(ctx, addr)
	if err != nil {
		return AppMessage{}, false, err
	}
	h := dst.apps.load()
	if h == nil {
		return AppMessage{}, false, nil
	}
	// Deliver deep copies of the payload, exactly as a real network would.
	msg.Payload = append([]byte(nil), msg.Payload...)
	reply, ok := h(msg)
	if !ok || !msg.WantReply {
		return AppMessage{}, false, nil
	}
	reply.Payload = append([]byte(nil), reply.Payload...)
	reply.WantReply = false
	return reply, true, nil
}

// Close implements Transport.
func (e *memEndpoint) Close() error {
	e.closed.Store(true)
	e.fabric.Remove(e.addr)
	return nil
}
