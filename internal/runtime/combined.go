package runtime

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

	"peersampling/internal/core"
	"peersampling/internal/transport"
)

// Combined runs two peer sampling protocol instances side by side and
// samples from the union of their views. The paper's concluding remarks
// propose exactly this: "introducing a second view for gossiping
// membership information and running more protocols concurrently", e.g. a
// quickly self-healing head-selection view combined with a slowly
// forgetting random-selection view that survives temporary partitions.
type Combined struct {
	primary   *Node
	secondary *Node

	mu  sync.Mutex
	rng *rand.Rand
}

var _ Service = (*Combined)(nil)

// NewCombined builds two nodes (each with its own transport endpoint from
// the factory) and couples them into one service.
func NewCombined(primary, secondary Config, factory transport.Factory, seed uint64) (*Combined, error) {
	a, err := New(primary, factory)
	if err != nil {
		return nil, fmt.Errorf("runtime: combined primary: %w", err)
	}
	b, err := New(secondary, factory)
	if err != nil {
		_ = a.Close()
		return nil, fmt.Errorf("runtime: combined secondary: %w", err)
	}
	return &Combined{
		primary:   a,
		secondary: b,
		rng:       rand.New(rand.NewPCG(seed, 0xC0B1)),
	}, nil
}

// Primary returns the first protocol instance.
func (c *Combined) Primary() *Node { return c.primary }

// Secondary returns the second protocol instance.
func (c *Combined) Secondary() *Node { return c.secondary }

// Init implements Service: both instances bootstrap from the contacts.
func (c *Combined) Init(contacts []string) error {
	if err := c.primary.Init(contacts); err != nil {
		return err
	}
	return c.secondary.Init(contacts)
}

// GetPeer implements Service: a uniform sample from the union of both
// views (duplicates between the views are not double-counted), collected
// in view order so a fixed seed gives a fixed sequence. The two
// instances are one logical participant with two transport addresses, so
// both own addresses are excluded — each instance's view can legitimately
// contain the other's address learned through gossip.
func (c *Combined) GetPeer() (string, error) {
	own := [2]string{c.primary.Addr(), c.secondary.Addr()}
	seen := make(map[string]bool)
	var addrs []string
	for _, view := range [2][]core.Descriptor[string]{c.primary.View(), c.secondary.View()} {
		for _, d := range view {
			if d.Addr != own[0] && d.Addr != own[1] && !seen[d.Addr] {
				seen[d.Addr] = true
				addrs = append(addrs, d.Addr)
			}
		}
	}
	if len(addrs) == 0 {
		return "", errors.New("runtime: combined service has no peers")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return addrs[c.rng.IntN(len(addrs))], nil
}

// Start launches both active threads.
func (c *Combined) Start() error {
	if err := c.primary.Start(); err != nil {
		return err
	}
	return c.secondary.Start()
}

// Tick advances both instances by one synchronous cycle.
func (c *Combined) Tick() {
	c.primary.Tick()
	c.secondary.Tick()
}

// Close stops both instances; the first error wins but both are closed.
func (c *Combined) Close() error {
	err1 := c.primary.Close()
	err2 := c.secondary.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
