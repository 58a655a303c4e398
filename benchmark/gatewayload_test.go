package main

import (
	"strings"
	"testing"
)

func TestValidateSampleBody(t *testing.T) {
	known := map[string]int32{}
	var all []string
	for i := range gatewayNodes {
		known[probeAddr(i)] = int32(i)
		all = append(all, `"`+probeAddr(i)+`"`)
	}
	body := func(peers []string, count string) string {
		return `{"peers":[` + strings.Join(peers, ",") + `],"count":` + count + `,"refreshed_unix_ms":1700000000000}` + "\n"
	}
	for _, tc := range []struct {
		name string
		n    int
		body string
		want string // substring of the error, "" for none
	}{
		{"n=1", 1, body(all[:1], "1"), ""},
		{"n=8", 8, body(all[:8], "8"), ""},
		{"n=32 served from a full view", 32, body(all[:30], "30"), ""},
		{"n=32, refresh missed two peers", 32, body(all[:28], "28"), ""},
		{"n=32, view entries replaced mid-refresh", 32, body(all[:32], "32"), ""},
		{"n=32, too few", 32, body(all[:20], "20"), "want 28 to 32"},
		{"n=8, one short", 8, body(all[:7], "7"), "want 8 to 8"},
		{"more than asked", 1, body(all[:2], "2"), "want 1 to 1"},
		{"count disagrees with body", 8, body(all[:8], "7"), "count 7"},
		{"duplicate", 8, body(append(append([]string{}, all[:7]...), all[0]), "8"), "duplicate"},
		{"unknown", 1, body([]string{`"10.9.9.9:1"`}, "1"), "unknown"},
		{"truncated", 1, `{"peers":["` + probeAddr(0), "documented shape"},
		{"trailing junk", 1, body(all[:1], "1") + "x", "documented shape"},
	} {
		c := &httpConn{body: []byte(tc.body)}
		err := c.validate(tc.n, known, false)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
