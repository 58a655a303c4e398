package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"peersampling/internal/config"
	"peersampling/internal/core"
	"peersampling/internal/metrics"
	"peersampling/internal/transport"
)

// Driver names accepted by New.
const (
	DriverInproc     = "inproc"
	DriverSubprocess = "subprocess"
)

// Drivers returns the available cluster drivers.
func Drivers() []string { return []string{DriverInproc, DriverSubprocess} }

// Config is the node template a cluster stamps out: every member runs
// this protocol tuple, view size and period. The zero value of optional
// fields selects defaults.
type Config struct {
	// Protocol, ViewSize and Period parameterise every member like
	// runtime.Config does a single node. Members seed their protocol
	// randomness from their own addresses, as any psnode does.
	Protocol core.Protocol
	ViewSize int
	Period   time.Duration
	// Backend names the transport ("tcp", "tcp-pooled", "udp");
	// empty selects "tcp".
	Backend string
	// Limits hardens every member's listener (see transport.Limits).
	Limits transport.Limits
	// Workload, when its Kind is set, runs a gossip application engine
	// on every member (see internal/workload). Zero knobs keep the
	// daemon defaults.
	Workload config.WorkloadSection
	// Gateway, when its Addr is set (usually "127.0.0.1:0"), serves the
	// light-client sampling API on every member through the daemon's
	// gateway plugin. Zero knobs keep the daemon defaults; the bound
	// address is reported by Member.GatewayAddr.
	Gateway config.GatewaySection
	// Name labels member i for metrics registration and logs; nil
	// selects "node00", "node01", ...
	Name func(i int) string
	// Collector, when non-nil, gets every spawned member registered:
	// inproc members as local sources, subprocess members as remote
	// pollers scraping the agent — so the same /metrics endpoint and
	// CSV dumps observe either driver, and dead subprocess members show
	// up as stale sources rather than vanishing.
	Collector *metrics.Collector

	// Subprocess driver only.

	// Psnode is the path to the psnode binary to fork.
	Psnode string
	// Dir is the scratch directory for ready files and per-member logs;
	// empty creates a temporary directory that Close removes.
	Dir string
	// SpawnTimeout bounds how long a forked member may take to write its
	// ready file; zero selects 15 seconds.
	SpawnTimeout time.Duration
}

func (cfg Config) withDefaults() Config {
	if cfg.Backend == "" {
		cfg.Backend = "tcp"
	}
	if cfg.Name == nil {
		cfg.Name = func(i int) string { return fmt.Sprintf("node%02d", i) }
	}
	if cfg.SpawnTimeout <= 0 {
		cfg.SpawnTimeout = 15 * time.Second
	}
	return cfg
}

// memberConfig maps the node template onto the full daemon config every
// member boots from, whichever driver runs it: a loopback ephemeral
// listener plus the template's protocol, transport, workload and
// gateway. Zero template fields keep the daemon defaults; invalid ones
// (a negative view size) are kept too, so the daemon's own validation
// rejects them exactly like a hand-edited file.
func (cfg Config) memberConfig(contacts []string) config.Config {
	nc := config.Default()
	nc.Node.Listen = "127.0.0.1:0"
	nc.Node.Protocol = cfg.Protocol.String()
	nc.Node.Contacts = contacts
	if cfg.ViewSize != 0 {
		nc.Node.ViewSize = cfg.ViewSize
	}
	if cfg.Period > 0 {
		nc.Node.Period = cfg.Period
	}
	nc.Transport.Backend = cfg.Backend
	nc.Transport.MaxConns = cfg.Limits.MaxConns
	nc.Transport.KeepAlive = cfg.Limits.KeepAlive
	nc.Transport.PushOnlyKeepAlive = cfg.Limits.PushOnlyKeepAlive
	nc.Transport.FirstFrameTimeout = cfg.Limits.FirstFrameTimeout
	if w := cfg.Workload; w.Kind != "" {
		ws := &nc.Workload
		ws.Kind = w.Kind
		if w.Period > 0 {
			ws.Period = w.Period
		}
		if w.Fanout > 0 {
			ws.Fanout = w.Fanout
		}
		if w.Mode != "" {
			ws.Mode = w.Mode
		}
		if w.TTL > 0 {
			ws.TTL = w.TTL
		}
		ws.Initial = w.Initial
	}
	if g := cfg.Gateway; g.Addr != "" {
		gs := &nc.Gateway
		gs.Addr = g.Addr
		if g.BatchSize > 0 {
			gs.BatchSize = g.BatchSize
		}
		if g.Refresh > 0 {
			gs.Refresh = g.Refresh
		}
		if g.RateRPS > 0 {
			gs.RateRPS = g.RateRPS
		}
		if g.Burst > 0 {
			gs.Burst = g.Burst
		}
		gs.TrustProxyHeader = g.TrustProxyHeader
	}
	return nc
}

// Member is one node of a cluster. Observation methods keep working on a
// dead inproc member (its final state stays readable) and fail with an
// error on a dead subprocess member — the caller decides whether that is
// noise (mid-churn) or a finding.
type Member interface {
	// Name is the member's registration label ("node03").
	Name() string
	// Addr is the member's gossip address.
	Addr() string
	// Alive reports whether the member has not been killed or closed.
	Alive() bool
	// Snapshot observes the member's counters, latency histogram and
	// view gauges right now.
	Snapshot() (metrics.NodeSnapshot, error)
	// View returns the member's current partial view.
	View() ([]transport.Descriptor, error)
	// GatewayAddr is the member's sampling-gateway HTTP address; empty
	// when the cluster template does not enable the gateway.
	GatewayAddr() string
}

// Cluster boots and tears down a fleet of peer sampling nodes. All
// methods are safe for concurrent use. Implementations are handed out by
// New; scenarios hold the Members returned by Spawn and never care which
// driver is underneath.
type Cluster interface {
	// Spawn starts one member, bootstrapped from the given contact
	// addresses (none for the first member).
	Spawn(contacts []string) (Member, error)
	// Kill forcibly removes a member: Manager.Close for an inproc
	// daemon, SIGKILL for a subprocess — no graceful handshake, which is
	// the point when simulating churn.
	Kill(m Member) error
	// Addrs returns the gossip addresses of the live members.
	Addrs() []string
	// Snapshot observes every live member; members that fail to answer
	// (dying mid-poll) are skipped.
	Snapshot() []metrics.NodeSnapshot
	// SetFaultRules replaces the per-link fault rules (cuts, loss,
	// latency — see transport.FaultRule) every member applies to the
	// exchanges it initiates; nil heals everything. Each member's daemon
	// owns its rules, so clusters never share faults: the inproc driver
	// hands them to the member's Manager, the subprocess driver POSTs
	// them to its control agent, and members spawned later inherit the
	// current rules. internal/chaos drives this from named plans.
	SetFaultRules(rules []transport.FaultRule) error
	// Close tears the whole cluster down (gracefully where possible,
	// forcibly otherwise) and releases scratch state. It is idempotent.
	Close() error
}

// New builds a cluster for the named driver ("" selects inproc).
func New(driver string, cfg Config) (Cluster, error) {
	switch driver {
	case "", DriverInproc:
		return &cluster{cfg: cfg.withDefaults(), drv: inproc{}}, nil
	case DriverSubprocess:
		return newSubprocess(cfg)
	default:
		return nil, fmt.Errorf("fleet: unknown driver %q (available: %v)", driver, Drivers())
	}
}

// member is a Member as the shared cluster drives it; each driver
// supplies one kind.
type member interface {
	Member
	// setFaultRules installs the cluster's fault rules on the member.
	setFaultRules(rules []transport.FaultRule) error
	// register lands the member on the cluster's collector.
	register(coll *metrics.Collector)
	// kill removes the member forcibly and stop gracefully where the
	// driver can; both are idempotent.
	kill() error
	stop() error
}

// launcher is a driver: it starts one member from the daemon config
// memberConfig generated, and releases driver state once every member
// has stopped.
type launcher interface {
	launch(name string, nc config.Config) (member, error)
	close() error
}

// cluster implements Cluster for every driver: member bookkeeping, fault
// rules and teardown are shared, and the launcher decides what a member
// is.
type cluster struct {
	cfg Config
	drv launcher

	mu      sync.Mutex
	members []member
	next    int // monotonic member index; respawns get fresh names
	closed  bool
	// rules is the rule table last set through SetFaultRules; Spawn hands
	// it to fresh members so respawns under an active chaos plan observe
	// the same network the survivors do.
	rules []transport.FaultRule
}

var errClosed = errors.New("fleet: cluster closed")

func (c *cluster) Spawn(contacts []string) (Member, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClosed
	}
	idx := c.next
	c.next++
	c.mu.Unlock()

	m, err := c.drv.launch(c.cfg.Name(idx), c.cfg.memberConfig(contacts))
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		// Close raced the spawn: do not leak the member.
		c.mu.Unlock()
		_ = m.kill()
		return nil, errClosed
	}
	c.members = append(c.members, m)
	rules := c.rules
	c.mu.Unlock()

	if len(rules) > 0 {
		// A member joining mid-plan must see the active faults; failing
		// that is a spawn failure, not a silent hole in the partition.
		if err := m.setFaultRules(rules); err != nil {
			_ = m.kill()
			return nil, fmt.Errorf("fleet: member %s fault rules: %w", m.Name(), err)
		}
	}
	if c.cfg.Collector != nil {
		m.register(c.cfg.Collector)
	}
	return m, nil
}

func (c *cluster) Kill(m Member) error {
	cm, ok := m.(member)
	if !ok {
		return fmt.Errorf("fleet: member %s is not from this cluster", m.Name())
	}
	return cm.kill()
}

// snapshotMembers copies the member list under the lock.
func (c *cluster) snapshotMembers() []member {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]member(nil), c.members...)
}

func (c *cluster) Addrs() []string {
	var addrs []string
	for _, m := range c.snapshotMembers() {
		if m.Alive() {
			addrs = append(addrs, m.Addr())
		}
	}
	return addrs
}

func (c *cluster) Snapshot() []metrics.NodeSnapshot {
	var snaps []metrics.NodeSnapshot
	for _, m := range c.snapshotMembers() {
		if !m.Alive() {
			continue
		}
		if s, err := m.Snapshot(); err == nil {
			snaps = append(snaps, s)
		}
	}
	return snaps
}

// SetFaultRules implements Cluster: the rule table is remembered for
// members spawned later and pushed to every live member. A member that
// cannot be reached is skipped when it is already dead — its network
// stack died with it — but a live member refusing the push is an error.
func (c *cluster) SetFaultRules(rules []transport.FaultRule) error {
	c.mu.Lock()
	c.rules = append([]transport.FaultRule(nil), rules...)
	c.mu.Unlock()

	var errs []error
	for _, m := range c.snapshotMembers() {
		if !m.Alive() {
			continue
		}
		if err := m.setFaultRules(rules); err != nil && m.Alive() {
			errs = append(errs, fmt.Errorf("fleet: member %s: %w", m.Name(), err))
		}
	}
	return errors.Join(errs...)
}

func (c *cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	members := append([]member(nil), c.members...)
	c.mu.Unlock()

	// One last poll round before the members go away warms the
	// collector's staleness cache, so a final dump or scrape after Close
	// replays the fleet's true end state (marked stale) instead of zeros.
	if c.cfg.Collector != nil {
		c.cfg.Collector.Snapshot()
	}
	// Stop members in parallel: a fleet of dozens must not take dozens
	// of graceful windows to fold.
	errs := make([]error, len(members)+1)
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = m.stop()
		}()
	}
	wg.Wait()
	errs[len(members)] = c.drv.close()
	return errors.Join(errs...)
}

// liveness is a member's Alive flag; the zero value is alive.
type liveness struct {
	mu   sync.Mutex
	dead bool
}

func (l *liveness) Alive() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.dead
}

// markDead flips Alive off and reports whether this call did the flip.
func (l *liveness) markDead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	was := !l.dead
	l.dead = true
	return was
}

// spawnConcurrency bounds how many SpawnN members come up in flight at
// once: enough to hide fork+ready latency, few enough that a wave of
// dozens does not stampede the machine with simultaneous process starts.
const spawnConcurrency = 8

// SpawnN spawns n members concurrently, each bootstrapped from the same
// contact list, and returns them in completion order. At most
// spawnConcurrency spawns are in flight at a time. On failure the first
// error is returned together with the members that did come up — they
// remain in the cluster, so the usual remedy is Close.
func SpawnN(c Cluster, n int, contacts []string) ([]Member, error) {
	if n <= 0 {
		return nil, nil
	}
	var (
		mu       sync.Mutex
		members  []Member
		firstErr error
		wg       sync.WaitGroup
		slots    = make(chan struct{}, spawnConcurrency)
	)
	for i := 0; i < n; i++ {
		mu.Lock()
		failed := firstErr != nil
		mu.Unlock()
		if failed {
			break // don't keep launching into a failing cluster
		}
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			m, err := c.Spawn(contacts)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			members = append(members, m)
		}()
	}
	wg.Wait()
	return members, firstErr
}
