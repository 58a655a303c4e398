package chaos

import (
	"embed"
	"fmt"
	"sort"
	"strings"
	"time"

	"peersampling/internal/config"
)

// Timeline event actions. Respawn and expire never appear in plan files —
// they are derived steps the compiler inserts from a kill event's
// respawn_after and a rule event's for.
const (
	ActionKill      = "kill"
	ActionPartition = "partition"
	ActionLatency   = "latency"
	ActionLoss      = "loss"
	ActionHeal      = "heal"
	ActionFlood     = "flood"
	ActionRespawn   = "respawn"
	ActionExpire    = "expire"
)

// Plan is one named fault plan: a versioned document listing timeline
// events. Construct by Parse or Load — a hand-built Plan should be
// passed through Validate before use.
type Plan struct {
	// Version is the document schema version; 1 is the only one.
	Version int
	// Name identifies the plan ("churn-waves"); embedded plans load by it.
	Name string
	// Description says what the plan does, for renders and logs.
	Description string
	// Events is the timeline, in document order. The executor sorts by At
	// (stable, so equal offsets keep document order).
	Events []Event
}

// Event is one timeline entry. Which fields are meaningful depends on
// Action; Validate rejects contradictions.
type Event struct {
	// At is the event's offset from plan start.
	At time.Duration
	// Action is one of kill, partition, latency, loss, heal, flood.
	Action string

	// Kill events: Fraction of the live members (ceiling, at least one) or
	// an explicit member-name list — exactly one of the two. RespawnAfter,
	// when positive, schedules a derived respawn of as many fresh members
	// as the wave killed, at At+RespawnAfter.
	Fraction     float64
	Members      []string
	RespawnAfter time.Duration

	// Rule events (partition, latency, loss): directed From→To member-name
	// sets ("*" is a wildcard; latency/loss default both sides to "*").
	// A partition may instead give Fraction to cut a random island of that
	// size off the rest, both directions. For, when positive, schedules a
	// derived expiry removing this event's rules at At+For.
	From []string
	To   []string
	For  time.Duration

	// Latency is the extra one-way delay a latency event injects per link.
	Latency time.Duration
	// Loss is the drop probability a loss event injects per link.
	Loss float64

	// Flood events: Flooders concurrent attacker goroutines (default 3)
	// dial the target Members (default: the first live member) for the
	// event's For duration, holding connections open without ever sending
	// a frame — the connection-flood + slowloris attack.
	Flooders int
}

// Parse decodes and validates one JSON plan document. Unknown keys
// anywhere in the document are errors.
func Parse(raw []byte) (*Plan, error) {
	doc, err := config.ParseDocument(raw)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	p := &Plan{}
	if err := readPlan(doc, p); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if err := doc.Finish(); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// readPlan maps the document onto p, strictly typed field by field.
func readPlan(doc *config.Document, p *Plan) error {
	if err := doc.Int("version", &p.Version); err != nil {
		return err
	}
	if err := doc.Str("name", &p.Name); err != nil {
		return err
	}
	if err := doc.Str("description", &p.Description); err != nil {
		return err
	}
	events, err := doc.Seq("events")
	if err != nil {
		return err
	}
	for _, ed := range events {
		var ev Event
		for _, read := range []error{
			ed.Duration("at", &ev.At),
			ed.Str("action", &ev.Action),
			ed.Float("fraction", &ev.Fraction),
			ed.StrList("members", &ev.Members),
			ed.Duration("respawn_after", &ev.RespawnAfter),
			ed.StrList("from", &ev.From),
			ed.StrList("to", &ev.To),
			ed.Duration("for", &ev.For),
			ed.Duration("latency", &ev.Latency),
			ed.Float("loss", &ev.Loss),
			ed.Int("flooders", &ev.Flooders),
		} {
			if read != nil {
				return read
			}
		}
		p.Events = append(p.Events, ev)
	}
	return nil
}

// Validate checks the whole plan and normalizes defaults (latency/loss
// sides default to "*", flood flooders to 3). It reports the first
// problem with its events[i] path.
func (p *Plan) Validate() error {
	if p.Version != 1 {
		return fmt.Errorf("chaos: plan %q: version: want 1, got %d", p.Name, p.Version)
	}
	if !validPlanName(p.Name) {
		return fmt.Errorf("chaos: plan name %q: want lowercase letters, digits and dashes", p.Name)
	}
	if len(p.Events) == 0 {
		return fmt.Errorf("chaos: plan %q: no events", p.Name)
	}
	for i := range p.Events {
		if err := p.Events[i].validate(); err != nil {
			return fmt.Errorf("chaos: plan %q: events[%d]: %w", p.Name, i, err)
		}
	}
	return nil
}

func validPlanName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return false
		}
	}
	return !strings.HasPrefix(name, "-") && !strings.HasSuffix(name, "-")
}

// validate checks one event's field combination and fills its defaults.
func (ev *Event) validate() error {
	if ev.At < 0 {
		return fmt.Errorf("at: must not be negative")
	}
	reject := func(cond bool, field string) error {
		if cond {
			return fmt.Errorf("%s: not meaningful for action %q", field, ev.Action)
		}
		return nil
	}
	// Fields no action below accepts are rejected per action; the helper
	// chains keep each case a readable checklist.
	switch ev.Action {
	case ActionKill:
		if (ev.Fraction != 0) == (len(ev.Members) != 0) {
			return fmt.Errorf("kill needs exactly one of fraction or members")
		}
		if ev.Fraction != 0 && (ev.Fraction <= 0 || ev.Fraction > 1) {
			return fmt.Errorf("fraction: want within (0,1], got %v", ev.Fraction)
		}
		if ev.RespawnAfter < 0 {
			return fmt.Errorf("respawn_after: must not be negative")
		}
		for _, e := range []error{
			reject(len(ev.From) > 0 || len(ev.To) > 0, "from/to"),
			reject(ev.For != 0, "for"),
			reject(ev.Latency != 0, "latency"),
			reject(ev.Loss != 0, "loss"),
			reject(ev.Flooders != 0, "flooders"),
		} {
			if e != nil {
				return e
			}
		}
	case ActionPartition:
		haveSets := len(ev.From) > 0 && len(ev.To) > 0
		if (ev.Fraction != 0) == haveSets {
			return fmt.Errorf("partition needs either fraction (random island) or from+to (directed cut)")
		}
		if ev.Fraction != 0 && (ev.Fraction <= 0 || ev.Fraction >= 1) {
			return fmt.Errorf("fraction: want within (0,1), got %v", ev.Fraction)
		}
		if len(ev.From) > 0 != (len(ev.To) > 0) {
			return fmt.Errorf("partition with sets needs both from and to")
		}
		if err := ev.ruleCommon(reject); err != nil {
			return err
		}
	case ActionLatency:
		if ev.Latency <= 0 {
			return fmt.Errorf("latency: want > 0, got %v", ev.Latency)
		}
		ev.defaultSides()
		if err := reject(ev.Fraction != 0, "fraction"); err != nil {
			return err
		}
		if err := ev.ruleCommon(reject); err != nil {
			return err
		}
	case ActionLoss:
		if ev.Loss <= 0 || ev.Loss > 1 {
			return fmt.Errorf("loss: want within (0,1], got %v", ev.Loss)
		}
		ev.defaultSides()
		if err := reject(ev.Fraction != 0, "fraction"); err != nil {
			return err
		}
		if err := ev.ruleCommon(reject); err != nil {
			return err
		}
	case ActionHeal:
		for _, e := range []error{
			reject(ev.Fraction != 0, "fraction"),
			reject(len(ev.Members) > 0, "members"),
			reject(len(ev.From) > 0 || len(ev.To) > 0, "from/to"),
			reject(ev.For != 0, "for"),
			reject(ev.RespawnAfter != 0, "respawn_after"),
			reject(ev.Latency != 0, "latency"),
			reject(ev.Loss != 0, "loss"),
			reject(ev.Flooders != 0, "flooders"),
		} {
			if e != nil {
				return e
			}
		}
	case ActionFlood:
		if ev.For <= 0 {
			return fmt.Errorf("flood needs a positive for duration")
		}
		if ev.Flooders == 0 {
			ev.Flooders = 3
		}
		if ev.Flooders < 0 {
			return fmt.Errorf("flooders: want >= 1, got %d", ev.Flooders)
		}
		for _, e := range []error{
			reject(ev.Fraction != 0, "fraction"),
			reject(len(ev.From) > 0 || len(ev.To) > 0, "from/to"),
			reject(ev.RespawnAfter != 0, "respawn_after"),
			reject(ev.Latency != 0, "latency"),
			reject(ev.Loss != 0, "loss"),
		} {
			if e != nil {
				return e
			}
		}
	case ActionRespawn, ActionExpire:
		return fmt.Errorf("action %q is derived by the executor, not written in plans", ev.Action)
	default:
		return fmt.Errorf("action: unknown %q (want kill, partition, latency, loss, heal or flood)", ev.Action)
	}
	return nil
}

// ruleCommon checks the fields shared by the rule-installing actions.
func (ev *Event) ruleCommon(reject func(bool, string) error) error {
	if ev.For < 0 {
		return fmt.Errorf("for: must not be negative")
	}
	for _, e := range []error{
		reject(len(ev.Members) > 0, "members"),
		reject(ev.RespawnAfter != 0, "respawn_after"),
		reject(ev.Flooders != 0, "flooders"),
	} {
		if e != nil {
			return e
		}
	}
	if ev.Action != ActionLatency && ev.Latency != 0 {
		return reject(true, "latency")
	}
	if ev.Action != ActionLoss && ev.Loss != 0 {
		return reject(true, "loss")
	}
	return nil
}

// defaultSides fills an unset side of a latency/loss event with the
// wildcard: "slow every link" is the common case and should not need
// boilerplate.
func (ev *Event) defaultSides() {
	if len(ev.From) == 0 {
		ev.From = []string{"*"}
	}
	if len(ev.To) == 0 {
		ev.To = []string{"*"}
	}
}

// KillWaves returns the plan's kill events, in timeline order — what a
// round-structured scenario (livechurn) iterates over.
func (p *Plan) KillWaves() []Event {
	var kills []Event
	for _, ev := range p.Events {
		if ev.Action == ActionKill {
			kills = append(kills, ev)
		}
	}
	sort.SliceStable(kills, func(i, j int) bool { return kills[i].At < kills[j].At })
	return kills
}

// FirstFlood returns the plan's first flood event, for scenarios that
// parameterize their report from it.
func (p *Plan) FirstFlood() (Event, bool) {
	for _, ev := range p.Events {
		if ev.Action == ActionFlood {
			return ev, true
		}
	}
	return Event{}, false
}

// plansFS embeds the named plans shipped in-repo; Load serves them.
//
//go:embed plans/*.json
var plansFS embed.FS

// Names lists the embedded plan names, sorted.
func Names() []string {
	entries, err := plansFS.ReadDir("plans")
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}

// Load parses the embedded plan with the given name (with or without the
// .json suffix). The document's name field must match the file name — a
// plan is addressed by one name everywhere.
func Load(name string) (*Plan, error) {
	base := strings.TrimSuffix(name, ".json")
	raw, err := plansFS.ReadFile("plans/" + base + ".json")
	if err != nil {
		return nil, fmt.Errorf("chaos: no embedded plan %q (have %s)", name, strings.Join(Names(), ", "))
	}
	p, err := Parse(raw)
	if err != nil {
		return nil, err
	}
	if p.Name != base {
		return nil, fmt.Errorf("chaos: embedded plan file %s.json names itself %q", base, p.Name)
	}
	return p, nil
}
