package transport

import "fmt"

// backends names the real backends a daemon can select by name, each
// bound to a listen address and hardening limits (the zero Limits
// selects the defaults). The table is sorted by name.
var backends = []struct {
	name  string
	build func(listen string, lim Limits) Factory
}{
	{"tcp", func(listen string, lim Limits) Factory {
		return func(h Handler) (Transport, error) { return ListenTCPLimits(listen, h, lim) }
	}},
	{"tcp-pooled", func(listen string, lim Limits) Factory {
		return func(h Handler) (Transport, error) { return ListenPooledTCP(listen, h, PoolConfig{Limits: lim}) }
	}},
	{"udp", func(listen string, lim Limits) Factory {
		return func(h Handler) (Transport, error) { return ListenUDPLimits(listen, h, lim) }
	}},
}

// Backends returns the sorted names of the real backends.
func Backends() []string {
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.name
	}
	return names
}

// NewFactory resolves a backend name to a Factory bound to the given
// listen address under the default Limits. Unknown names list the
// available backends in the error.
func NewFactory(name, listen string) (Factory, error) {
	return NewFactoryLimits(name, listen, Limits{})
}

// NewFactoryLimits is NewFactory with explicit hardening limits threaded
// through to the backend.
func NewFactoryLimits(name, listen string, lim Limits) (Factory, error) {
	for _, b := range backends {
		if b.name == name {
			return b.build(listen, lim), nil
		}
	}
	return nil, fmt.Errorf("transport: unknown backend %q (available: %v)", name, Backends())
}
