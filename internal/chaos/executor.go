package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"peersampling/internal/fleet"
	"peersampling/internal/loop"
	"peersampling/internal/metrics"
	"peersampling/internal/transport"
)

// ErrDone reports a Step call on a plan whose timeline is exhausted.
var ErrDone = errors.New("chaos: plan exhausted")

// Options parameterize an Executor.
type Options struct {
	// Seed drives victim selection and island membership; the same seed
	// replays the same choices against the same member list.
	Seed uint64
	// MaxContacts caps how many bootstrap addresses a respawned member is
	// handed (default 3) — rejoining through a few contacts, not a full
	// membership list, is the service model under test.
	MaxContacts int
	// Collector, when non-nil, gets the executor registered as a snapshot
	// source named Source, exporting chaos_event rows and the
	// peersampling_chaos_active gauge alongside the fleet's series.
	Collector *metrics.Collector
	// Source is the collector registration name; empty selects "chaos".
	Source string
	// Logf, when non-nil, receives one line per applied step.
	Logf func(format string, args ...any)
}

// Applied reports what one Step did to the fleet.
type Applied struct {
	// Seq is the step's position in the compiled timeline (0-based).
	Seq int
	// At is the step's plan-time offset; When is the wall-clock instant it
	// was applied.
	At     time.Duration
	Action string
	When   time.Time
	// Killed and Spawned are the members a kill/respawn step removed and
	// added. KilledFailures sums the victims' failure counters just before
	// they died — the baseline a churn scenario subtracts so failures
	// caused by talking TO the dead are measured, not failures the dead
	// had already accrued.
	Killed         []fleet.Member
	KilledFailures uint64
	Spawned        []fleet.Member
	// FloodDials counts connections a flood step threw.
	FloodDials uint64
	// RulesTouched counts fault rules this step installed or removed;
	// ActiveRules is the table size after the step.
	RulesTouched int
	ActiveRules  int
}

// step is one compiled timeline entry: a plan event, or a derived
// respawn/expire that an event's respawn_after/for scheduled.
type step struct {
	at     time.Duration
	action string
	evIdx  int // index into plan.Events (derived steps share their parent's)
}

// Executor replays one plan against one cluster. Drive it either with
// Step — apply the next timeline entry right now, scenario-paced — or
// Run, which honours the events' time offsets on the real clock. Step
// and Run serialize against each other; the observation accessors (and
// the collector snapshot hook) are safe to call concurrently from
// anywhere, including mid-flood.
type Executor struct {
	plan    *Plan
	cluster fleet.Cluster
	opts    Options
	steps   []step
	rng     *rand.Rand

	stepMu sync.Mutex // serializes Step/Run

	mu          sync.Mutex // guards everything below
	members     []fleet.Member
	next        int
	fired       []metrics.ChaosEvent
	killedBy    map[int][]fleet.Member        // kill-event index -> its victims
	rules       map[int][]transport.FaultRule // rule-event index -> its installed rules
	killedTotal int
	respawned   int
	floodDials  uint64
	activeRules int
	everFaulted bool
}

// New compiles plan into an executor driving cluster. members are the
// cluster's current members (the executor tracks kills and respawns from
// here on; read the evolving list back with Members). The plan is not
// copied — do not mutate it while the executor runs.
func New(plan *Plan, cluster fleet.Cluster, members []fleet.Member, opts Options) *Executor {
	if opts.MaxContacts <= 0 {
		opts.MaxContacts = 3
	}
	if opts.Source == "" {
		opts.Source = "chaos"
	}
	e := &Executor{
		plan:     plan,
		cluster:  cluster,
		opts:     opts,
		members:  append([]fleet.Member(nil), members...),
		rng:      rand.New(rand.NewPCG(opts.Seed, 0xC4A05EC)),
		killedBy: make(map[int][]fleet.Member),
		rules:    make(map[int][]transport.FaultRule),
	}
	for i := range plan.Events {
		ev := &plan.Events[i]
		e.steps = append(e.steps, step{at: ev.At, action: ev.Action, evIdx: i})
		switch {
		case ev.Action == ActionKill && ev.RespawnAfter > 0:
			e.steps = append(e.steps, step{at: ev.At + ev.RespawnAfter, action: ActionRespawn, evIdx: i})
		case ruleAction(ev.Action) && ev.For > 0:
			e.steps = append(e.steps, step{at: ev.At + ev.For, action: ActionExpire, evIdx: i})
		}
	}
	sort.SliceStable(e.steps, func(i, j int) bool { return e.steps[i].at < e.steps[j].at })
	if opts.Collector != nil {
		opts.Collector.RegisterFunc(opts.Source, e.snapshotAt)
	}
	return e
}

func ruleAction(a string) bool {
	return a == ActionPartition || a == ActionLatency || a == ActionLoss
}

// Plan returns the plan the executor replays.
func (e *Executor) Plan() *Plan { return e.plan }

// Steps reports the compiled timeline length (plan events plus derived
// respawn and expiry steps).
func (e *Executor) Steps() int { return len(e.steps) }

// Members returns the executor's view of the cluster membership: the
// initial members plus every respawn, killed ones included (check
// Member.Alive).
func (e *Executor) Members() []fleet.Member {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]fleet.Member(nil), e.members...)
}

func aliveOf(members []fleet.Member) []fleet.Member {
	alive := make([]fleet.Member, 0, len(members))
	for _, m := range members {
		if m.Alive() {
			alive = append(alive, m)
		}
	}
	return alive
}

// KilledTotal reports how many members the plan has killed so far.
func (e *Executor) KilledTotal() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.killedTotal
}

// Respawned reports how many members the plan has respawned so far.
func (e *Executor) Respawned() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.respawned
}

// FloodDials reports the connections the plan's flood steps threw so far.
func (e *Executor) FloodDials() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.floodDials
}

// ActiveRules reports the fault rules currently installed on the fleet.
func (e *Executor) ActiveRules() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.activeRules
}

// Fired returns the applied timeline so far, oldest first.
func (e *Executor) Fired() []metrics.ChaosEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]metrics.ChaosEvent(nil), e.fired...)
}

// snapshotAt is the collector hook: the executor's state as a
// NodeSnapshot. Cycles carries the fired-step count so the dumper emits
// a round exactly when the plan advanced.
func (e *Executor) snapshotAt(unixMillis int64) metrics.NodeSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return metrics.NodeSnapshot{
		Addr:   "plan:" + e.plan.Name,
		Cycles: uint64(e.next),
		Chaos: &metrics.ChaosSnapshot{
			Plan:        e.plan.Name,
			Events:      uint64(e.next),
			ActiveRules: e.activeRules,
			Killed:      uint64(e.killedTotal),
			Respawned:   uint64(e.respawned),
			FloodDials:  e.floodDials,
			Fired:       append([]metrics.ChaosEvent(nil), e.fired...),
		},
	}
}

// Step applies the next compiled timeline entry immediately, ignoring
// its time offset — the scenario-paced mode, where the caller interleaves
// steps with its own measurements. Returns ErrDone past the last step.
func (e *Executor) Step() (Applied, error) {
	e.stepMu.Lock()
	defer e.stepMu.Unlock()
	return e.applyNext()
}

// Run replays the remaining timeline on the real clock, sleeping out
// each step's offset (measured from Run's start) before applying it. A
// step that overruns its successor's offset — a flood blocks for its
// whole for — just makes the successor fire immediately after.
func (e *Executor) Run(ctx context.Context) error {
	e.stepMu.Lock()
	defer e.stepMu.Unlock()
	start := time.Now()
	for {
		e.mu.Lock()
		if e.next >= len(e.steps) {
			e.mu.Unlock()
			return nil
		}
		at := e.steps[e.next].at
		e.mu.Unlock()
		if wait := at - time.Since(start); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			}
			timer.Stop()
		}
		if _, err := e.applyNext(); err != nil {
			return err
		}
	}
}

// Close removes any fault rules the executor installed, healing the
// fleet. It does not kill or spawn anything. Idempotent.
func (e *Executor) Close() error {
	e.mu.Lock()
	faulted := e.everFaulted
	e.rules = make(map[int][]transport.FaultRule)
	e.activeRules = 0
	e.mu.Unlock()
	if !faulted {
		return nil
	}
	return e.cluster.SetFaultRules(nil)
}

// applyNext applies the next step. Caller holds stepMu.
func (e *Executor) applyNext() (Applied, error) {
	e.mu.Lock()
	if e.next >= len(e.steps) {
		e.mu.Unlock()
		return Applied{}, ErrDone
	}
	seq := e.next
	st := e.steps[seq]
	members := append([]fleet.Member(nil), e.members...)
	e.mu.Unlock()

	ev := &e.plan.Events[st.evIdx]
	ap := Applied{Seq: seq, At: st.at, Action: st.action, When: time.Now()}
	var err error
	switch st.action {
	case ActionKill:
		err = e.applyKill(&ap, st.evIdx, ev, members)
	case ActionRespawn:
		err = e.applyRespawn(&ap, st.evIdx)
	case ActionPartition, ActionLatency, ActionLoss:
		err = e.applyRule(&ap, st.evIdx, ev, members)
	case ActionHeal:
		err = e.applyHeal(&ap)
	case ActionExpire:
		err = e.applyExpire(&ap, st.evIdx)
	case ActionFlood:
		err = e.applyFlood(&ap, ev, members)
	default:
		err = fmt.Errorf("chaos: unknown compiled action %q", st.action)
	}
	if err != nil {
		return Applied{}, fmt.Errorf("chaos: plan %s step %d (%s at %v): %w", e.plan.Name, seq, st.action, st.at, err)
	}

	targets := len(ap.Killed) + len(ap.Spawned) + ap.RulesTouched
	if st.action == ActionFlood {
		targets = ev.Flooders
	}
	e.mu.Lock()
	e.next = seq + 1
	e.fired = append(e.fired, metrics.ChaosEvent{
		Seq:        seq,
		Action:     st.action,
		AtSeconds:  st.at.Seconds(),
		UnixMillis: ap.When.UnixMilli(),
		Targets:    targets,
	})
	e.mu.Unlock()
	if e.opts.Logf != nil {
		e.opts.Logf("chaos: %s[%d] %s: killed=%d spawned=%d rules=%d active=%d dials=%d",
			e.plan.Name, seq, st.action, len(ap.Killed), len(ap.Spawned), ap.RulesTouched, ap.ActiveRules, ap.FloodDials)
	}
	return ap, nil
}

// applyKill removes the event's victims: the named members, or a random
// ceil(fraction) of the live ones — at least one, matching the paper's
// catastrophic-failure experiments where the wave size is a fraction of
// the current population.
func (e *Executor) applyKill(ap *Applied, evIdx int, ev *Event, members []fleet.Member) error {
	alive := aliveOf(members)
	var victims []fleet.Member
	if len(ev.Members) > 0 {
		for _, name := range ev.Members {
			m := findMember(alive, name)
			if m == nil {
				return fmt.Errorf("kill: no live member named %q", name)
			}
			victims = append(victims, m)
		}
	} else {
		if len(alive) == 0 {
			return fmt.Errorf("kill: no live members")
		}
		k := ceilFraction(len(alive), ev.Fraction)
		e.rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
		victims = alive[:k]
	}
	for _, v := range victims {
		// Best-effort pre-kill baseline: a subprocess member dying under us
		// mid-snapshot is churn noise, not a plan failure.
		if s, err := v.Snapshot(); err == nil {
			ap.KilledFailures += s.Failures
		}
		if err := e.cluster.Kill(v); err != nil {
			return fmt.Errorf("kill %s: %w", v.Name(), err)
		}
	}
	ap.Killed = victims
	e.mu.Lock()
	e.killedBy[evIdx] = victims
	e.killedTotal += len(victims)
	ap.ActiveRules = e.activeRules
	e.mu.Unlock()
	return nil
}

// applyRespawn spawns as many fresh members as the parent kill step
// removed, bootstrapped from a few current addresses.
func (e *Executor) applyRespawn(ap *Applied, evIdx int) error {
	e.mu.Lock()
	n := len(e.killedBy[evIdx])
	e.mu.Unlock()
	if n == 0 {
		return nil
	}
	contacts := e.cluster.Addrs()
	if len(contacts) > e.opts.MaxContacts {
		contacts = contacts[:e.opts.MaxContacts]
	}
	spawned, err := fleet.SpawnN(e.cluster, n, contacts)
	if err != nil {
		return fmt.Errorf("respawn: %w", err)
	}
	ap.Spawned = spawned
	e.mu.Lock()
	e.members = append(e.members, spawned...)
	e.respawned += len(spawned)
	ap.ActiveRules = e.activeRules
	e.mu.Unlock()
	return nil
}

// applyRule compiles one partition/latency/loss event to FaultRules and
// pushes the merged table.
func (e *Executor) applyRule(ap *Applied, evIdx int, ev *Event, members []fleet.Member) error {
	var rules []transport.FaultRule
	switch {
	case ev.Action == ActionPartition && ev.Fraction != 0:
		// Random island: ceil(fraction) of the live members cut off from
		// the rest, both directions.
		alive := aliveOf(members)
		if len(alive) < 2 {
			return fmt.Errorf("partition: need at least 2 live members, have %d", len(alive))
		}
		k := ceilFraction(len(alive), ev.Fraction)
		if k == len(alive) {
			k = len(alive) - 1
		}
		e.rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
		for _, in := range alive[:k] {
			for _, out := range alive[k:] {
				rules = append(rules,
					transport.FaultRule{From: in.Addr(), To: out.Addr(), Cut: true},
					transport.FaultRule{From: out.Addr(), To: in.Addr(), Cut: true})
			}
		}
	default:
		// Directed from×to pairs; a partition event written with sets cuts
		// only the named direction — the asymmetric case.
		from, err := resolveAddrs(members, ev.From)
		if err != nil {
			return err
		}
		to, err := resolveAddrs(members, ev.To)
		if err != nil {
			return err
		}
		for _, f := range from {
			for _, t := range to {
				r := transport.FaultRule{From: f, To: t}
				switch ev.Action {
				case ActionPartition:
					r.Cut = true
				case ActionLatency:
					r.Latency = ev.Latency
				case ActionLoss:
					r.Loss = ev.Loss
				}
				rules = append(rules, r)
			}
		}
	}
	e.mu.Lock()
	e.rules[evIdx] = rules
	e.mu.Unlock()
	ap.RulesTouched = len(rules)
	return e.pushRules(ap)
}

// applyHeal drops every installed rule.
func (e *Executor) applyHeal(ap *Applied) error {
	e.mu.Lock()
	for _, rs := range e.rules {
		ap.RulesTouched += len(rs)
	}
	e.rules = make(map[int][]transport.FaultRule)
	e.mu.Unlock()
	return e.pushRules(ap)
}

// applyExpire drops the rules one event installed, leaving the rest.
func (e *Executor) applyExpire(ap *Applied, evIdx int) error {
	e.mu.Lock()
	ap.RulesTouched = len(e.rules[evIdx])
	delete(e.rules, evIdx)
	e.mu.Unlock()
	return e.pushRules(ap)
}

// applyFlood runs the event's connection flood, blocking for its whole
// duration. The dial counter is shared with the collector hook, so a
// concurrent snapshot watches the flood climb.
func (e *Executor) applyFlood(ap *Applied, ev *Event, members []fleet.Member) error {
	alive := aliveOf(members)
	var targets []string
	if len(ev.Members) > 0 {
		for _, name := range ev.Members {
			m := findMember(alive, name)
			if m == nil {
				return fmt.Errorf("flood: no live member named %q", name)
			}
			targets = append(targets, m.Addr())
		}
	} else {
		if len(alive) == 0 {
			return fmt.Errorf("flood: no live members")
		}
		targets = []string{alive[0].Addr()}
	}
	e.mu.Lock()
	before := e.floodDials
	ap.ActiveRules = e.activeRules
	e.mu.Unlock()
	var dials atomic.Uint64
	// Publish the climbing dial counter while the flood blocks, so a
	// concurrent collector snapshot watches the attack in flight.
	publisher := loop.Every(func() time.Duration { return 50 * time.Millisecond }, func() bool {
		e.mu.Lock()
		e.floodDials = before + dials.Load()
		e.mu.Unlock()
		return true
	})
	runFlood(targets, ev.Flooders, ev.For, &dials)
	publisher.Stop()
	e.mu.Lock()
	e.floodDials = before + dials.Load()
	e.mu.Unlock()
	ap.FloodDials = dials.Load()
	return nil
}

// pushRules flattens the per-event rule tables (ordered by event index,
// so replay order is deterministic) onto the cluster.
func (e *Executor) pushRules(ap *Applied) error {
	e.mu.Lock()
	idxs := make([]int, 0, len(e.rules))
	for i := range e.rules {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var flat []transport.FaultRule
	for _, i := range idxs {
		flat = append(flat, e.rules[i]...)
	}
	e.activeRules = len(flat)
	e.everFaulted = true
	ap.ActiveRules = len(flat)
	e.mu.Unlock()
	if err := e.cluster.SetFaultRules(flat); err != nil {
		return fmt.Errorf("push fault rules: %w", err)
	}
	return nil
}

// resolveAddrs maps member names to transport addresses; "*" passes
// through as the wildcard FaultRule understands.
func resolveAddrs(members []fleet.Member, names []string) ([]string, error) {
	addrs := make([]string, 0, len(names))
	for _, name := range names {
		if name == "*" {
			addrs = append(addrs, "*")
			continue
		}
		m := findMember(members, name)
		if m == nil {
			return nil, fmt.Errorf("no member named %q", name)
		}
		addrs = append(addrs, m.Addr())
	}
	return addrs, nil
}

func findMember(members []fleet.Member, name string) fleet.Member {
	for _, m := range members {
		if m.Name() == name {
			return m
		}
	}
	return nil
}

// ceilFraction is ceil(n*f) clamped to [1,n] — the wave-size arithmetic
// the paper's churn experiments use (25% of 8 nodes kills 2, of 9 kills
// 3).
func ceilFraction(n int, f float64) int {
	k := (n*int(f*100) + 99) / 100
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}
