package config

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestLoadFileJSON loads a full document and checks every section
// lands, including values that differ from the defaults.
func TestLoadFileJSON(t *testing.T) {
	cfg := loadDoc(t, "psnode.json", fullDoc)
	if cfg.Node.Listen != "127.0.0.1:7946" {
		t.Errorf("listen = %q", cfg.Node.Listen)
	}
	if len(cfg.Node.Contacts) != 2 || cfg.Node.Contacts[1] != "127.0.0.1:7948" {
		t.Errorf("contacts = %v", cfg.Node.Contacts)
	}
	if cfg.Node.Protocol != "(rand,rand,push)" || cfg.Node.ViewSize != 20 {
		t.Errorf("protocol/view = %q/%d", cfg.Node.Protocol, cfg.Node.ViewSize)
	}
	if cfg.Node.Period != 250*time.Millisecond || !cfg.Node.Diverse {
		t.Errorf("period/diverse = %v/%v", cfg.Node.Period, cfg.Node.Diverse)
	}
	if cfg.Transport.Backend != "udp" || cfg.Transport.MaxConns != 256 || cfg.Transport.KeepAlive != 90*time.Second {
		t.Errorf("transport = %+v", cfg.Transport)
	}
	if cfg.Metrics.Addr != "127.0.0.1:9090" || cfg.Metrics.Dump != "/tmp/psnode.csv" || cfg.Metrics.ReportInterval != 2*time.Second {
		t.Errorf("metrics = %+v", cfg.Metrics)
	}
	if cfg.Control.Addr != "127.0.0.1:7070" || cfg.Control.ReadyFile != "/tmp/ready.json" {
		t.Errorf("control = %+v", cfg.Control)
	}
	if cfg.Gateway.Addr != "127.0.0.1:8080" || cfg.Gateway.BatchSize != 128 ||
		cfg.Gateway.Refresh != 500*time.Millisecond || cfg.Gateway.RateRPS != 2.5 ||
		cfg.Gateway.Burst != 4 || !cfg.Gateway.TrustProxyHeader {
		t.Errorf("gateway = %+v", cfg.Gateway)
	}
	if cfg.Workload.Kind != WorkloadBroadcast || cfg.Workload.Period != 500*time.Millisecond || cfg.Workload.Fanout != 3 {
		t.Errorf("workload = %+v", cfg.Workload)
	}
}

// fullDoc sets a non-default value in every section.
const fullDoc = `{
  "version": 1,
  "node": {
    "listen": "127.0.0.1:7946",
    "contacts": ["127.0.0.1:7947", "127.0.0.1:7948"],
    "protocol": "(rand,rand,push)",
    "view_size": 20,
    "period": "250ms",
    "diverse": true
  },
  "transport": {"backend": "udp", "max_conns": 256, "keepalive": "90s"},
  "metrics": {"addr": "127.0.0.1:9090", "dump": "/tmp/psnode.csv", "report_interval": "2s"},
  "control": {"addr": "127.0.0.1:7070", "ready_file": "/tmp/ready.json"},
  "gateway": {
    "addr": "127.0.0.1:8080",
    "batch_size": 128,
    "refresh": "500ms",
    "rate_rps": 2.5,
    "burst": 4,
    "trust_proxy_header": true
  },
  "workload": {"kind": "broadcast", "period": "500ms", "fanout": 3}
}`

// TestLoadFileDefaulting checks that a minimal file keeps every default
// for the sections it does not mention.
func TestLoadFileDefaulting(t *testing.T) {
	cfg := loadDoc(t, "min.json", `{"node": {"listen": "127.0.0.1:7946"}}`)
	def := Default()
	if cfg.Node.Protocol != def.Node.Protocol || cfg.Node.ViewSize != def.Node.ViewSize || cfg.Node.Period != def.Node.Period {
		t.Errorf("node defaults lost: %+v", cfg.Node)
	}
	if cfg.Transport.Backend != def.Transport.Backend {
		t.Errorf("backend default lost: %q", cfg.Transport.Backend)
	}
	if cfg.Metrics.ReportInterval != def.Metrics.ReportInterval {
		t.Errorf("report interval default lost: %v", cfg.Metrics.ReportInterval)
	}
	if cfg.GatewayEnabled() {
		t.Error("gateway enabled without an address")
	}
	if cfg.Gateway.BatchSize != def.Gateway.BatchSize {
		t.Errorf("gateway defaults lost: %+v", cfg.Gateway)
	}
}

// loadRejections is the table of every rejected document: bad syntax,
// bad types, unknown fields, and each validation rule, with the field
// path the error must carry. FuzzParseConfig seeds from it too.
var loadRejections = []struct {
	name string
	doc  string
	want string // substring of the error
}{
	{"bad version", `{"version": 2}`, "version: config schema version 2"},
	{"version not a number", `{"version": "next"}`, "version: want an integer"},
	{"unknown top-level field", `{"nodes": {"listen": "127.0.0.1:1"}}`, "nodes: unknown field"},
	{"unknown nested field", `{"node": {"listn": "127.0.0.1:1"}}`, "node.listn: unknown field"},
	{"empty listen", `{"node": {"listen": ""}}`, "node.listen: must not be empty"},
	{"malformed listen", `{"node": {"listen": "127.0.0.1"}}`, "node.listen: malformed address"},
	{"bad protocol", `{"node": {"protocol": "(rand,head)"}}`, "node.protocol:"},
	{"zero view size", `{"node": {"view_size": 0}}`, "node.view_size: must be positive"},
	{"negative view size", `{"node": {"view_size": -3}}`, "node.view_size: must be positive"},
	{"view size not integer", `{"node": {"view_size": "many"}}`, "node.view_size: want an integer"},
	{"fractional view size", `{"node": {"view_size": 2.5}}`, "node.view_size: want an integer"},
	{"zero period", `{"node": {"period": "0s"}}`, "node.period: must be positive"},
	{"negative period", `{"node": {"period": "-1s"}}`, "node.period: must be positive"},
	{"bare number period", `{"node": {"period": 5}}`, "node.period: want a duration string"},
	{"malformed period", `{"node": {"period": "soon"}}`, "node.period: malformed duration"},
	{"empty contact", `{"node": {"contacts": [" "]}}`, "node.contacts[0]: empty contact"},
	{"contact not string", `{"node": {"contacts": [42]}}`, "node.contacts[0]: want a string"},
	{"bad backend", `{"transport": {"backend": "carrier-pigeon"}}`, `transport.backend: unknown backend "carrier-pigeon"`},
	{"negative keepalive", `{"transport": {"keepalive": "-1s"}}`, "transport.keepalive: must not be negative"},
	{"sub-ms keepalive", `{"transport": {"keepalive": "10us"}}`, "transport.keepalive: 10µs is below the 1ms minimum"},
	{"push-only above keepalive", `{"transport": {"keepalive": "10s", "push_only_keepalive": "20s"}}`,
		"transport.push_only_keepalive: 20s exceeds"},
	{"malformed metrics addr", `{"metrics": {"addr": "localhost"}}`, "metrics.addr: malformed address"},
	{"zero report interval", `{"metrics": {"report_interval": "0s"}}`, "metrics.report_interval: must be positive"},
	{"malformed control addr", `{"control": {"addr": "::1:x:"}}`, "control.addr: malformed address"},
	{"malformed gateway addr", `{"gateway": {"addr": "not-an-addr"}}`, "gateway.addr: malformed address"},
	{"zero gateway batch", `{"gateway": {"addr": "127.0.0.1:8080", "batch_size": 0}}`, "gateway.batch_size: must be positive"},
	{"zero gateway refresh", `{"gateway": {"addr": "127.0.0.1:8080", "refresh": "0s"}}`, "gateway.refresh: must be positive"},
	{"zero gateway rate", `{"gateway": {"addr": "127.0.0.1:8080", "rate_rps": 0}}`, "gateway.rate_rps: must be positive"},
	{"sub-ms gateway refresh", `{"gateway": {"addr": "127.0.0.1:8080", "refresh": "500us"}}`, "gateway.refresh: 500µs is below the 1ms minimum"},
	{"negative gateway burst", `{"gateway": {"addr": "127.0.0.1:8080", "burst": -1}}`, "gateway.burst: must be positive"},
	{"section not a mapping", `{"node": 42}`, "node: want a mapping"},
	{"duplicate key", `{"node": {"listen": "127.0.0.1:1", "listen": "127.0.0.1:2"}}`, "node.listen: duplicate key"},
	{"duplicate section", `{"node": {"listen": "127.0.0.1:1"}, "node": {"view_size": 5}}`, "node: duplicate key"},
	{"trailing data", `{"node": {"view_size": 20}} trailing junk`, "data after the document"},
	{"truncated document", `{"node": {"view_size": 20}`, "malformed JSON"},
	{"top level not an object", `[{"version": 1}]`, "want an object at the top level"},
	{"deep nesting", `{"node": ` + strings.Repeat("[", 64), "nesting deeper than"},
	{"string where bool", `{"node": {"diverse": "yes-please"}}`, "node.diverse: want true or false"},
}

func TestLoadRejections(t *testing.T) {
	for _, tc := range loadRejections {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("document accepted:\n%s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzParseConfig: Parse never panics on arbitrary bytes, and a document
// it accepts is valid and survives WriteFile → LoadFile unchanged.
func FuzzParseConfig(f *testing.F) {
	f.Add([]byte(fullDoc))
	for _, tc := range loadRejections {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		cfg, err := Parse(raw)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted config fails Validate: %v\n%s", err, raw)
		}
		path := filepath.Join(t.TempDir(), "gen.json")
		if err := WriteFile(path, cfg); err != nil {
			t.Fatal(err)
		}
		back, err := LoadFile(path)
		if err != nil {
			t.Fatalf("written config does not load: %v\n%s", err, raw)
		}
		// WriteFile spells no contacts as [], which loads back non-nil.
		if len(cfg.Node.Contacts) == 0 {
			cfg.Node.Contacts, back.Node.Contacts = nil, nil
		}
		if !reflect.DeepEqual(back, cfg) {
			t.Fatalf("round trip drifted:\n got %+v\nwant %+v", back, cfg)
		}
	})
}

// TestWriteFileRoundTrip checks the generated-file path the subprocess
// fleet driver uses: WriteFile output must load back identical.
func TestWriteFileRoundTrip(t *testing.T) {
	cfg := Default()
	cfg.Node.Listen = "127.0.0.1:7946"
	cfg.Node.Contacts = []string{"127.0.0.1:7947"}
	cfg.Node.Period = 20 * time.Millisecond
	cfg.Transport.Backend = "tcp"
	cfg.Transport.MaxConns = 99
	cfg.Transport.KeepAlive = 45 * time.Second
	cfg.Control.Addr = "127.0.0.1:0"
	cfg.Control.ReadyFile = "/tmp/ready.json"
	cfg.Gateway.Addr = "127.0.0.1:0"
	cfg.Gateway.RateRPS = 1.5

	path := filepath.Join(t.TempDir(), "gen.json")
	if err := WriteFile(path, cfg); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Node.Contacts) != 1 || back.Node.Contacts[0] != "127.0.0.1:7947" {
		t.Errorf("contacts = %v", back.Node.Contacts)
	}
	back.Node.Contacts, cfg.Node.Contacts = nil, nil // compared above
	if !reflect.DeepEqual(back, cfg) {
		t.Errorf("round trip drifted:\n got %+v\nwant %+v", back, cfg)
	}
}

// TestDiffClassification pins the hot-vs-restart contract: the exact
// classification internal/daemon relies on when applying SIGHUP.
func TestDiffClassification(t *testing.T) {
	base := Default()
	base.Gateway.Addr = "127.0.0.1:8080"

	hot := base
	hot.Transport.MaxConns = 17
	hot.Transport.KeepAlive = 30 * time.Second
	hot.Metrics.ReportInterval = 9 * time.Second
	hot.Gateway.RateRPS = 100
	hot.Gateway.Burst = 200
	hot.Gateway.TrustProxyHeader = true
	hot.Node.Contacts = []string{"127.0.0.1:7947"}
	d := Diff(base, hot)
	if len(d.Restart) != 0 {
		t.Errorf("hot-only change classified restart: %v", d.Restart)
	}
	wantHot := []string{"node.contacts", "transport.max_conns", "transport.keepalive",
		"metrics.report_interval", "gateway.rate_rps", "gateway.burst", "gateway.trust_proxy_header"}
	for _, path := range wantHot {
		if !contains(d.Hot, path) {
			t.Errorf("hot diff missing %s: %v", path, d.Hot)
		}
	}

	restart := base
	restart.Node.Listen = "127.0.0.1:7999"
	restart.Node.Protocol = "(tail,head,pull)"
	restart.Node.ViewSize = 11
	restart.Transport.Backend = "udp"
	restart.Metrics.Addr = "127.0.0.1:9999"
	restart.Gateway.Addr = "127.0.0.1:8888"
	d = Diff(base, restart)
	if len(d.Hot) != 0 {
		t.Errorf("restart-only change classified hot: %v", d.Hot)
	}
	for _, path := range []string{"node.listen", "node.protocol", "node.view_size",
		"transport.backend", "metrics.addr", "gateway.addr"} {
		if !contains(d.Restart, path) {
			t.Errorf("restart diff missing %s: %v", path, d.Restart)
		}
	}

	if d := Diff(base, base); !d.Empty() {
		t.Errorf("identical configs diff non-empty: %+v", d)
	}
}

// TestMergeHot checks the applied-config bookkeeping after a live
// reload: hot fields move, restart fields stay.
func TestMergeHot(t *testing.T) {
	old := Default()
	new := Default()
	new.Node.Listen = "127.0.0.1:7999" // restart-required: must not move
	new.Transport.MaxConns = 3         // hot: must move
	new.Metrics.ReportInterval = 42 * time.Second
	merged := MergeHot(old, new)
	if merged.Node.Listen != old.Node.Listen {
		t.Errorf("restart field leaked through MergeHot: %q", merged.Node.Listen)
	}
	if merged.Transport.MaxConns != 3 || merged.Metrics.ReportInterval != 42*time.Second {
		t.Errorf("hot fields not merged: %+v", merged)
	}
}

// TestFromFlagsOverlay checks flags only override when actually set.
func TestFromFlagsOverlay(t *testing.T) {
	fs := flag.NewFlagSet("psnode", flag.ContinueOnError)
	f := FromFlags(fs)
	if err := fs.Parse([]string{"-c", "50", "-contacts", "127.0.0.1:7947, 127.0.0.1:7948,", "-gateway-addr", "127.0.0.1:8080"}); err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.Node.Listen = "127.0.0.1:7946" // from a config file
	cfg.Node.ViewSize = 20             // from a config file; flag must win
	f.Apply(&cfg)
	if cfg.Node.ViewSize != 50 {
		t.Errorf("set flag did not override: view size %d", cfg.Node.ViewSize)
	}
	if cfg.Node.Listen != "127.0.0.1:7946" {
		t.Errorf("unset flag overrode file value: listen %q", cfg.Node.Listen)
	}
	if len(cfg.Node.Contacts) != 2 || cfg.Node.Contacts[1] != "127.0.0.1:7948" {
		t.Errorf("contacts overlay = %v", cfg.Node.Contacts)
	}
	if cfg.Gateway.Addr != "127.0.0.1:8080" {
		t.Errorf("gateway addr overlay = %q", cfg.Gateway.Addr)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("overlaid config invalid: %v", err)
	}
}

func loadDoc(t *testing.T, name, doc string) Config {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// leafChanges sets every leaf field of the schema, one per entry, to a
// valid non-default value, with whether a live reload may apply it.
var leafChanges = []struct {
	path string
	hot  bool
	set  func(*Config)
}{
	{"version", false, func(c *Config) { c.Version = 2 }},
	{"node.listen", false, func(c *Config) { c.Node.Listen = "127.0.0.1:7999" }},
	{"node.contacts", true, func(c *Config) { c.Node.Contacts = []string{"127.0.0.1:7947"} }},
	{"node.protocol", false, func(c *Config) { c.Node.Protocol = "(tail,head,pull)" }},
	{"node.view_size", false, func(c *Config) { c.Node.ViewSize = 11 }},
	{"node.period", false, func(c *Config) { c.Node.Period = 250 * time.Millisecond }},
	{"node.diverse", false, func(c *Config) { c.Node.Diverse = true }},
	{"transport.backend", false, func(c *Config) { c.Transport.Backend = "udp" }},
	{"transport.max_conns", true, func(c *Config) { c.Transport.MaxConns = 17 }},
	{"transport.keepalive", true, func(c *Config) { c.Transport.KeepAlive = 30 * time.Second }},
	{"transport.push_only_keepalive", true, func(c *Config) { c.Transport.PushOnlyKeepAlive = 5 * time.Second }},
	{"transport.first_frame_timeout", true, func(c *Config) { c.Transport.FirstFrameTimeout = 3 * time.Second }},
	{"metrics.addr", false, func(c *Config) { c.Metrics.Addr = "127.0.0.1:9999" }},
	{"metrics.dump", false, func(c *Config) { c.Metrics.Dump = "dump.csv" }},
	{"metrics.report_interval", true, func(c *Config) { c.Metrics.ReportInterval = 9 * time.Second }},
	{"control.addr", false, func(c *Config) { c.Control.Addr = "127.0.0.1:7070" }},
	{"control.ready_file", false, func(c *Config) { c.Control.ReadyFile = "ready.json" }},
	{"gateway.addr", false, func(c *Config) { c.Gateway.Addr = "127.0.0.1:8080" }},
	{"gateway.batch_size", true, func(c *Config) { c.Gateway.BatchSize = 17 }},
	{"gateway.refresh", true, func(c *Config) { c.Gateway.Refresh = 3 * time.Second }},
	{"gateway.rate_rps", true, func(c *Config) { c.Gateway.RateRPS = 2.5 }},
	{"gateway.burst", true, func(c *Config) { c.Gateway.Burst = 4 }},
	{"gateway.trust_proxy_header", true, func(c *Config) { c.Gateway.TrustProxyHeader = true }},
	{"workload.kind", false, func(c *Config) { c.Workload.Kind = WorkloadAggregate }},
	{"workload.period", false, func(c *Config) { c.Workload.Period = 500 * time.Millisecond }},
	{"workload.fanout", false, func(c *Config) { c.Workload.Fanout = 3 }},
	{"workload.mode", false, func(c *Config) { c.Workload.Mode = "infect-and-die" }},
	{"workload.ttl", false, func(c *Config) { c.Workload.TTL = 5 }},
	{"workload.initial", false, func(c *Config) { c.Workload.Initial = 1.5 }},
}

// TestEachLeafField changes every leaf alone and checks the three
// places a field must be known: Diff names exactly its path in the
// right list, MergeHot takes the new value if and only if the field is
// hot, and WriteFile → LoadFile keeps the non-default value.
func TestEachLeafField(t *testing.T) {
	if len(leafChanges) != 29 {
		t.Fatalf("%d leaf fields in the table, want 29", len(leafChanges))
	}
	for _, tc := range leafChanges {
		t.Run(tc.path, func(t *testing.T) {
			base := Default()
			changed := Default()
			tc.set(&changed)

			d := Diff(base, changed)
			hot, restart := []string{}, []string{tc.path}
			if tc.hot {
				hot, restart = restart, hot
			}
			if !slices.Equal(d.Hot, hot) || !slices.Equal(d.Restart, restart) {
				t.Errorf("Diff = hot %v restart %v, want hot %v restart %v", d.Hot, d.Restart, hot, restart)
			}

			want := base
			if tc.hot {
				want = changed
			}
			if merged := MergeHot(base, changed); !reflect.DeepEqual(merged, want) {
				t.Errorf("MergeHot = %+v, want %+v", merged, want)
			}

			path := filepath.Join(t.TempDir(), "gen.json")
			if err := WriteFile(path, changed); err != nil {
				t.Fatal(err)
			}
			back, err := LoadFile(path)
			if tc.path == "version" {
				// No other version validates; the written file must still
				// carry it for LoadFile to reject.
				if err == nil || !strings.Contains(err.Error(), "config schema version 2") {
					t.Errorf("LoadFile of a version-2 file: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(changed.Node.Contacts) == 0 {
				back.Node.Contacts = nil // WriteFile spells no contacts as []
			}
			if !reflect.DeepEqual(back, changed) {
				t.Errorf("round trip drifted:\n got %+v\nwant %+v", back, changed)
			}
		})
	}
}

// TestWriteFileGolden pins the generated document byte for byte, for the
// defaults and for every field set: the subprocess fleet driver hands
// these files to psnode, and operators read them.
func TestWriteFileGolden(t *testing.T) {
	all := Default()
	for _, tc := range leafChanges {
		if tc.path != "version" {
			tc.set(&all)
		}
	}
	for name, cfg := range map[string]Config{"default": Default(), "all_fields": all} {
		path := filepath.Join(t.TempDir(), name+".json")
		if err := WriteFile(path, cfg); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		goldenPath := filepath.Join("testdata", "written_"+name+".json")
		if *updateGolden {
			if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: WriteFile drifted from %s:\n%s", name, goldenPath, got)
		}
	}
}
