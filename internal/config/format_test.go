package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Config and plan documents are JSON only. These tests pin that a
// document in the YAML subset earlier releases also read fails at load
// time with an error naming the file and the JSON format, instead of
// half-loading through some lenient fallback.

// TestLoadFileYAML: a complete YAML config is refused, not partly read.
func TestLoadFileYAML(t *testing.T) {
	rejectsAsJSON(t, `
# psnode example configuration
version: 1
node:
  listen: 127.0.0.1:7946
  contacts: [127.0.0.1:7947, 127.0.0.1:7948]
  view_size: 20
  period: 250ms
gateway:
  addr: 127.0.0.1:8080
  rate_rps: 2.5
`)
}

// TestParseYAMLSubset: every shape of the old YAML subset — nesting, both
// sequence forms, scalar typing, quoting, comments — is refused.
func TestParseYAMLSubset(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"empty document", "\n# only a comment\n"},
		{"flat scalars", "a: 1\nb: hi\nc: true\nd: 2.5\ne: null\nf: ~\n"},
		{"nested mapping", "outer:\n  inner:\n    leaf: 3\n"},
		{"block sequence", "list:\n  - one\n  - two\n"},
		{"flow sequence", "list: [one, 2, true]\n"},
		{"empty flow sequence", "list: []\n"},
		{"quoted scalars", `a: "x: y # not a comment"` + "\n" + `b: 'it''s'` + "\n"},
		{"comments and blanks", "a: 1 # trailing\n\n# full line\nb: 2\n"},
		{"empty value is null", "a:\nb: 1\n"},
		{"address-like bare scalar", "addr: 127.0.0.1:8080\n"},
		{"sequence of mappings", "events:\n  - at: 0s\n    action: kill\n  - at: 2s\n    action: heal\n"},
		{"mapping item with nested block", "rules:\n  - name: r1\n    link:\n      loss: 0.5\n    targets: [a, b]\n"},
		{"address-like sequence scalar", "peers:\n  - 10.0.0.1:8080\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { rejectsAsJSON(t, tc.doc) })
	}
}

// TestParseYAMLErrors: YAML the old subset already refused stays refused,
// now with the same JSON-format error as everything else.
func TestParseYAMLErrors(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"tab indentation", "a:\n\tb: 1\n"},
		{"duplicate key", "a: 1\na: 2\n"},
		{"missing colon", "just a value\n"},
		{"unexpected indent", "a: 1\n    b: 2\n"},
		{"mixed mapping and sequence", "a:\n  - one\n  key: 2\n"},
		{"unterminated quote", "a: \"oops\n"},
		{"unterminated flow", "a: [1, 2\n"},
		{"misaligned item continuation", "a:\n  - k: 1\n   x: 2\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { rejectsAsJSON(t, tc.doc) })
	}
}

// rejectsAsJSON writes doc to a .yaml file and checks LoadFile refuses
// it with an error naming the file and the JSON format.
func rejectsAsJSON(t *testing.T, doc string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "psnode.yaml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFile(path)
	if err == nil {
		t.Fatalf("YAML document loaded:\n%s", doc)
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "malformed JSON") {
		t.Fatalf("error %q does not name the file and the JSON format", err)
	}
}
