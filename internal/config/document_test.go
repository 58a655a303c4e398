package config

import (
	"strings"
	"testing"
	"time"
)

// TestDocumentReadsTypedFields drives the exported strict reader over a
// document mixing scalars, a sub-mapping and a sequence of mappings —
// the shape chaos plans use.
func TestDocumentReadsTypedFields(t *testing.T) {
	raw := []byte(`{
  "version": 1,
  "name": "demo",
  "ratio": 0.25,
  "strict": true,
  "period": "250ms",
  "meta": {"owner": "ops"},
  "events": [
    {"at": "0s", "action": "kill"},
    {"at": "2s", "action": "heal"}
  ]
}`)
	doc, err := ParseDocument(raw)
	if err != nil {
		t.Fatalf("ParseDocument: %v", err)
	}

	var version int
	var name string
	var ratio float64
	var strict bool
	var period time.Duration
	if err := doc.Int("version", &version); err != nil {
		t.Fatal(err)
	}
	if err := doc.Str("name", &name); err != nil {
		t.Fatal(err)
	}
	if err := doc.Float("ratio", &ratio); err != nil {
		t.Fatal(err)
	}
	if err := doc.Bool("strict", &strict); err != nil {
		t.Fatal(err)
	}
	if err := doc.Duration("period", &period); err != nil {
		t.Fatal(err)
	}
	if version != 1 || name != "demo" || ratio != 0.25 || !strict || period != 250*time.Millisecond {
		t.Fatalf("scalars: version=%d name=%q ratio=%v strict=%v period=%v", version, name, ratio, strict, period)
	}

	meta := doc.Sub("meta")
	if meta == nil {
		t.Fatal("Sub(meta) = nil")
	}
	var owner string
	if err := meta.Str("owner", &owner); err != nil || owner != "ops" {
		t.Fatalf("meta.owner = %q, %v", owner, err)
	}

	events, err := doc.Seq("events")
	if err != nil {
		t.Fatalf("Seq: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("len(events) = %d, want 2", len(events))
	}
	var at time.Duration
	var action string
	if err := events[1].Duration("at", &at); err != nil {
		t.Fatal(err)
	}
	if err := events[1].Str("action", &action); err != nil {
		t.Fatal(err)
	}
	if at != 2*time.Second || action != "heal" {
		t.Fatalf("events[1] = %v %q", at, action)
	}
	if err := events[0].Str("action", &action); err != nil {
		t.Fatal(err)
	}
	var zero time.Duration
	if err := events[0].Duration("at", &zero); err != nil {
		t.Fatal(err)
	}

	if err := doc.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestDocumentFinishSweepsSequenceElements: an unread key inside a
// sequence element is rejected with its "name[i]" path, exactly like an
// unknown key in a named sub-section.
func TestDocumentFinishSweepsSequenceElements(t *testing.T) {
	doc, err := ParseDocument([]byte(`{"events": [{"action": "kill", "bogus": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	events, err := doc.Seq("events")
	if err != nil {
		t.Fatal(err)
	}
	var action string
	if err := events[0].Str("action", &action); err != nil {
		t.Fatal(err)
	}
	err = doc.Finish()
	if err == nil {
		t.Fatal("Finish accepted an unread sequence-element key")
	}
	if !strings.Contains(err.Error(), "events[0]") || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("error %q does not name events[0].bogus", err)
	}
}

// TestDocumentSeqTypeErrors: present-but-wrong-shape values surface as
// typed path errors, not panics.
func TestDocumentSeqTypeErrors(t *testing.T) {
	doc, err := ParseDocument([]byte(`{"events": 3, "list": ["plain"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Seq("events"); err == nil || !strings.Contains(err.Error(), "events") {
		t.Fatalf("Seq on scalar: %v", err)
	}
	if _, err := doc.Seq("list"); err == nil || !strings.Contains(err.Error(), "list[0]") {
		t.Fatalf("Seq on scalar list: %v", err)
	}
	if doc.Sub("absent") != nil {
		t.Fatal("Sub(absent) should be nil")
	}
	if seq, err := doc.Seq("absent"); err != nil || seq != nil {
		t.Fatalf("Seq(absent) = %v, %v", seq, err)
	}
}

// TestDocumentParsesJSON: nulls keep the default, a bare string reads as
// a one-element list, and whitespace-only differences do not matter.
func TestDocumentParsesJSON(t *testing.T) {
	doc, err := ParseDocument([]byte("\n\t{\"name\": \"j\", \"skip\": null, \"to\": \"*\",\n\t \"events\": [{\"at\": \"1s\"}]}\n"))
	if err != nil {
		t.Fatal(err)
	}
	skip, to := "default", []string(nil)
	if err := doc.Str("skip", &skip); err != nil || skip != "default" {
		t.Fatalf("skip = %q, %v", skip, err)
	}
	if err := doc.StrList("to", &to); err != nil || len(to) != 1 || to[0] != "*" {
		t.Fatalf("to = %v, %v", to, err)
	}
	var name string
	if err := doc.Str("name", &name); err != nil || name != "j" {
		t.Fatalf("name = %q, %v", name, err)
	}
	events, err := doc.Seq("events")
	if err != nil || len(events) != 1 {
		t.Fatalf("events: %v, %v", events, err)
	}
	var at time.Duration
	if err := events[0].Duration("at", &at); err != nil || at != time.Second {
		t.Fatalf("at = %v, %v", at, err)
	}
	if err := doc.Finish(); err != nil {
		t.Fatal(err)
	}
}
