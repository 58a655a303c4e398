package config

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"peersampling/internal/transport"
)

// Flags is the command-line override surface of the daemon: every flag
// mirrors one config field, and Apply overlays exactly the flags the
// user set onto a Config — so `psnode -config psnode.json -c 50` runs
// the file's configuration with only the view size overridden, and
// `psnode -listen :7946` with no file overrides the defaults.
type Flags struct {
	fs *flag.FlagSet

	listen    *string
	contacts  *string
	protocol  *string
	viewSize  *int
	period    *time.Duration
	diverse   *bool
	backend   *string
	maxConns  *int
	keepalive *time.Duration
	report    *time.Duration

	metricsAddr *string
	metricsCSV  *string
	controlAddr *string
	readyFile   *string
	gatewayAddr *string
}

// FromFlags registers the daemon's config-override flags on fs and
// returns the handle Apply reads them back through. Call fs.Parse (or
// flag.Parse for the command-line set) before Apply.
func FromFlags(fs *flag.FlagSet) *Flags {
	def := Default()
	f := &Flags{fs: fs}
	f.listen = fs.String("listen", def.Node.Listen, "listen address")
	f.backend = fs.String("transport", def.Transport.Backend,
		fmt.Sprintf("wire backend, one of %v; tcp and tcp-pooled interoperate, udp nodes only reach udp nodes", transport.Backends()))
	f.contacts = fs.String("contacts", "", "comma-separated bootstrap addresses")
	f.protocol = fs.String("protocol", def.Node.Protocol, "protocol tuple")
	f.viewSize = fs.Int("c", def.Node.ViewSize, "view size")
	f.period = fs.Duration("period", def.Node.Period, "gossip period T")
	f.report = fs.Duration("report", def.Metrics.ReportInterval, "view report and CSV dump interval")
	f.diverse = fs.Bool("diverse", def.Node.Diverse, "diversity-maximising getPeer")
	f.maxConns = fs.Int("max-conns", def.Transport.MaxConns,
		"max connections served concurrently (0 = default 1024, negative = unlimited)")
	f.keepalive = fs.Duration("keepalive", def.Transport.KeepAlive,
		"keep-alive budget for served connections that pull (0 = default 2m; push-only peers get 3/4 of it)")
	f.metricsAddr = fs.String("metrics-addr", "",
		"serve Prometheus text-format metrics on http://<addr>/metrics (empty = disabled)")
	f.metricsCSV = fs.String("metrics-csv", "",
		"append periodic metric snapshots to this file as long-form CSV (empty = disabled)")
	f.controlAddr = fs.String("control-addr", "",
		"serve the fleet control agent on this address: GET /healthz, /snapshot, /view; POST /stop (empty = disabled)")
	f.readyFile = fs.String("ready-file", "",
		"atomically write the daemon's bound addresses as JSON to this path once up (empty = disabled)")
	f.gatewayAddr = fs.String("gateway-addr", "",
		"serve the light-client sampling API on this address: GET /v1/sample, /healthz (empty = disabled)")
	return f
}

// Apply overlays the flags the user explicitly set onto cfg. Flags left
// at their defaults do not touch the config, so a config file's values
// win over flag defaults but lose to flags actually typed.
func (f *Flags) Apply(cfg *Config) {
	set := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })

	if set["listen"] {
		cfg.Node.Listen = *f.listen
	}
	if set["contacts"] {
		cfg.Node.Contacts = splitContacts(*f.contacts)
	}
	if set["protocol"] {
		cfg.Node.Protocol = *f.protocol
	}
	if set["c"] {
		cfg.Node.ViewSize = *f.viewSize
	}
	if set["period"] {
		cfg.Node.Period = *f.period
	}
	if set["diverse"] {
		cfg.Node.Diverse = *f.diverse
	}
	if set["transport"] {
		cfg.Transport.Backend = *f.backend
	}
	if set["max-conns"] {
		cfg.Transport.MaxConns = *f.maxConns
	}
	if set["keepalive"] {
		cfg.Transport.KeepAlive = *f.keepalive
	}
	if set["report"] {
		cfg.Metrics.ReportInterval = *f.report
	}
	if set["metrics-addr"] {
		cfg.Metrics.Addr = *f.metricsAddr
	}
	if set["metrics-csv"] {
		cfg.Metrics.Dump = *f.metricsCSV
	}
	if set["control-addr"] {
		cfg.Control.Addr = *f.controlAddr
	}
	if set["ready-file"] {
		cfg.Control.ReadyFile = *f.readyFile
	}
	if set["gateway-addr"] {
		cfg.Gateway.Addr = *f.gatewayAddr
	}
}

// splitContacts splits a comma-separated contact list, dropping empty
// segments so a trailing comma is not an "empty contact" error.
func splitContacts(s string) []string {
	var out []string
	for _, c := range strings.Split(s, ",") {
		if c = strings.TrimSpace(c); c != "" {
			out = append(out, c)
		}
	}
	return out
}
