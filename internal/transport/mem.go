package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Fabric is an in-memory network connecting any number of endpoints in one
// process: the substrate for runtime tests, single-process demos and the
// benchmark's transport-free fleets. It has no fault model of its own: a
// node's runtime.Config.Faults applies to fabric exchanges exactly as it
// does to socket ones, and Remove simulates a crashed endpoint.
type Fabric struct {
	mu        sync.RWMutex
	endpoints map[string]*memEndpoint
}

// NewFabric returns an empty in-memory network.
func NewFabric() *Fabric {
	return &Fabric{endpoints: make(map[string]*memEndpoint)}
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

// Remove unregisters an address (simulating a crashed node whose peers
// still hold its descriptor).
func (f *Fabric) Remove(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.endpoints, addr)
}

// lookup resolves a destination endpoint, or reports it unreachable.
func (f *Fabric) lookup(to string) (*memEndpoint, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	dst, ok := f.endpoints[to]
	if !ok || dst.closed.Load() {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	return dst, nil
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
// closed check, the lookup and the context check. It returns the
// endpoint to deliver to.
func (e *memEndpoint) reach(ctx context.Context, addr string) (*memEndpoint, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	dst, err := e.fabric.lookup(addr)
	if err != nil {
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
