package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseValidPlan(t *testing.T) {
	raw := `{
  "version": 1,
  "name": "full-timeline",
  "description": "one of everything",
  "events": [
    {"at": "0s", "action": "kill", "fraction": 0.25, "respawn_after": "50ms"},
    {"at": "100ms", "action": "kill", "members": ["victim", "node03"]},
    {"at": "200ms", "action": "partition", "fraction": 0.5, "for": "300ms"},
    {"at": "250ms", "action": "partition", "from": ["node00"], "to": ["node01", "node02"]},
    {"at": "300ms", "action": "latency", "latency": "2ms", "for": "1s"},
    {"at": "400ms", "action": "loss", "loss": 0.5, "from": ["node00"]},
    {"at": "500ms", "action": "heal"},
    {"at": "600ms", "action": "flood", "members": ["victim"], "for": "1s"}
  ]
}`
	p, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "full-timeline" || p.Version != 1 || len(p.Events) != 8 {
		t.Fatalf("plan = %+v", p)
	}
	if p.Events[0].Fraction != 0.25 || p.Events[0].RespawnAfter != 50*time.Millisecond {
		t.Errorf("kill event = %+v", p.Events[0])
	}
	if got := p.Events[1].Members; len(got) != 2 || got[0] != "victim" {
		t.Errorf("named kill = %+v", p.Events[1])
	}
	// Latency and loss default unset sides to the wildcard.
	if lat := p.Events[4]; lat.From[0] != "*" || lat.To[0] != "*" || lat.Latency != 2*time.Millisecond {
		t.Errorf("latency event = %+v", lat)
	}
	if loss := p.Events[5]; loss.From[0] != "node00" || loss.To[0] != "*" {
		t.Errorf("loss event = %+v", loss)
	}
	// Flood defaults flooders to 3.
	if fl := p.Events[7]; fl.Flooders != 3 {
		t.Errorf("flood event = %+v", fl)
	}

	if waves := p.KillWaves(); len(waves) != 2 || waves[0].At != 0 {
		t.Errorf("KillWaves = %+v", waves)
	}
	if fl, ok := p.FirstFlood(); !ok || fl.At != 600*time.Millisecond {
		t.Errorf("FirstFlood = %+v, %v", fl, ok)
	}
}

// planRejections is every rejected plan document with the error
// substring it must carry; FuzzParsePlan seeds from it too. Most cases
// are one-event plans built by event, so only the event under test is
// spelled out.
var planRejections = []struct {
	name string
	raw  string
	want string // error substring
}{
	{"bad version", `{"version": 2, "name": "x1", "events": [{"action": "heal"}]}`, "version"},
	{"bad name", `{"version": 1, "name": "Bad_Name", "events": [{"action": "heal"}]}`, "plan name"},
	{"no events", `{"version": 1, "name": "x1"}`, "no events"},
	{"trailing data", `{"version": 1, "name": "x1", "events": [{"action": "heal"}]} {}`, "data after the document"},
	{"duplicate key", `{"version": 1, "name": "x1", "events": [{"action": "heal", "action": "kill"}]}`, "events[0].action: duplicate key"},
	{"unknown key", event(`"action": "heal", "bogus": 1`), "bogus"},
	{"unknown action", event(`"action": "explode"`), "unknown"},
	{"derived action", event(`"action": "respawn"`), "derived"},
	{"negative at", event(`"at": "-1s", "action": "heal"`), "negative"},
	{"kill both selectors", event(`"action": "kill", "fraction": 0.5, "members": ["a"]`), "exactly one"},
	{"kill neither selector", event(`"action": "kill"`), "exactly one"},
	{"kill fraction range", event(`"action": "kill", "fraction": 1.5`), "fraction"},
	{"kill with loss", event(`"action": "kill", "fraction": 0.5, "loss": 0.1`), "not meaningful"},
	{"partition both selectors", event(`"action": "partition", "fraction": 0.5, "from": ["a"], "to": ["b"]`), "either fraction"},
	{"partition whole fleet", event(`"action": "partition", "fraction": 1.0`), "fraction"},
	{"partition one side", event(`"action": "partition", "from": ["a"]`), "either fraction"},
	{"latency zero", event(`"action": "latency", "latency": "0s"`), "latency"},
	{"loss range", event(`"action": "loss", "loss": 1.5`), "loss"},
	{"heal with extras", event(`"action": "heal", "fraction": 0.5`), "not meaningful"},
	{"flood without for", event(`"action": "flood"`), "positive for"},
	{"flood with latency", event(`"action": "flood", "for": "1s", "latency": "1ms"`), "not meaningful"},
}

// event wraps one event's fields into a plan document named x1.
func event(fields string) string {
	return `{"version": 1, "name": "x1", "events": [{` + fields + `}]}`
}

func TestParseRejects(t *testing.T) {
	for _, tc := range planRejections {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.raw))
			if err == nil {
				t.Fatalf("parsed successfully:\n%s", tc.raw)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Event validation errors carry the events[i] path so a multi-event plan
// pinpoints the bad entry.
func TestValidateReportsEventPath(t *testing.T) {
	raw := `{"version": 1, "name": "x1", "events": [{"action": "heal"}, {"action": "kill"}]}`
	_, err := Parse([]byte(raw))
	if err == nil || !strings.Contains(err.Error(), "events[1]") {
		t.Errorf("error %v does not carry the event path", err)
	}
}

// Every plan shipped in-repo must load, and each one's document name
// must match its file name.
func TestEmbeddedPlansLoad(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("embedded plans = %v", names)
	}
	for _, want := range []string{"churn-waves", "gateway-kill", "hostile-flood", "partition-heal"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("plan %s not embedded (have %v)", want, names)
		}
	}
	for _, n := range names {
		p, err := Load(n)
		if err != nil {
			t.Errorf("Load(%s): %v", n, err)
			continue
		}
		if p.Name != n {
			t.Errorf("plan file %s names itself %s", n, p.Name)
		}
	}
	// The .json suffix is accepted; unknown names name the alternatives.
	if _, err := Load("churn-waves.json"); err != nil {
		t.Errorf("Load with suffix: %v", err)
	}
	if _, err := Load("no-such-plan"); err == nil || !strings.Contains(err.Error(), "churn-waves") {
		t.Errorf("unknown plan error does not list plans: %v", err)
	}
}

// FuzzParsePlan: Parse never panics on arbitrary bytes, and a plan it
// accepts is already normalized — validating it again changes nothing.
func FuzzParsePlan(f *testing.F) {
	for _, n := range Names() {
		raw, err := plansFS.ReadFile("plans/" + n + ".json")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, tc := range planRejections {
		f.Add([]byte(tc.raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := Parse(raw)
		if err != nil {
			return
		}
		again := *p
		again.Events = append([]Event(nil), p.Events...)
		if err := again.Validate(); err != nil {
			t.Fatalf("accepted plan fails re-validation: %v\n%s", err, raw)
		}
		if !reflect.DeepEqual(&again, p) {
			t.Fatalf("re-validation changed the plan:\n got %+v\nwant %+v", again, *p)
		}
	})
}
