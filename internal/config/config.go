package config

import (
	"fmt"
	"net"
	"strings"
	"time"

	"peersampling/internal/core"
	"peersampling/internal/gateway"
	"peersampling/internal/transport"
)

// Version is the config schema version this build speaks. A document
// declaring a different version is rejected outright: silently reading
// a future schema risks running a daemon on half-understood intent.
const Version = 1

// Config is the deployable daemon's whole configuration: everything
// cmd/psnode used to take as flags, grouped by subsystem. The zero
// value is not runnable; start from Default (what LoadFile does) so
// every unset field carries its documented default.
//
// Each field declares its document key once, in a cfg tag; decoding,
// WriteFile, Diff and MergeHot all walk these tags. A section may embed
// a component's own settings struct untagged (transport.Limits,
// gateway.Config): its tagged fields are leaves of that section. A leaf
// tagged reload:"hot" is one the daemon applies live on reload; every
// other leaf needs a restart. Leaves are string, []string, int, float64,
// bool or time.Duration.
type Config struct {
	// Version is the config schema version; Default sets it to Version.
	Version int `cfg:"version"`

	// Node parameterises the sampling node itself.
	Node NodeSection `cfg:"node"`
	// Transport selects and hardens the wire backend.
	Transport TransportSection `cfg:"transport"`
	// Metrics configures the observability plugins.
	Metrics MetricsSection `cfg:"metrics"`
	// Control configures the fleet control agent and ready file.
	Control ControlSection `cfg:"control"`
	// Gateway configures the light-client sampling API.
	Gateway GatewaySection `cfg:"gateway"`
	// Workload runs a gossip application engine on top of the node's
	// sampling service.
	Workload WorkloadSection `cfg:"workload"`
}

// NodeSection configures the protocol instance (config keys under
// "node:").
type NodeSection struct {
	// Listen is the gossip listen address; it doubles as the node's
	// identity, so bind an address peers can reach.
	Listen string `cfg:"listen"`
	// Contacts are the bootstrap addresses handed to Init.
	Contacts []string `cfg:"contacts" reload:"hot"`
	// Protocol is the paper's tuple notation, e.g. "(rand,head,pushpull)".
	Protocol string `cfg:"protocol"`
	// ViewSize is the partial view capacity c.
	ViewSize int `cfg:"view_size"`
	// Period is the gossip cycle length T.
	Period time.Duration `cfg:"period"`
	// Diverse selects the diversity-maximising GetPeer refinement.
	Diverse bool `cfg:"diverse"`
}

// TransportSection selects the wire backend and its hardening limits
// (config keys under "transport:"). The limits are transport.Limits
// itself: its fields carry their own keys, zero-value defaults and
// validation rules.
type TransportSection struct {
	// Backend names the registered transport ("tcp", "tcp-pooled", "udp").
	Backend string `cfg:"backend"`
	transport.Limits
}

// MetricsSection configures the observability plugins (config keys
// under "metrics:").
type MetricsSection struct {
	// Addr serves Prometheus text-format metrics on GET /metrics when
	// non-empty.
	Addr string `cfg:"addr"`
	// Dump appends periodic snapshots to this file as long-form CSV
	// when non-empty.
	Dump string `cfg:"dump"`
	// ReportInterval paces the dump rounds and the periodic report log.
	ReportInterval time.Duration `cfg:"report_interval" reload:"hot"`
}

// ControlSection configures the fleet control surface (config keys
// under "control:").
type ControlSection struct {
	// Addr serves the fleet agent (GET /healthz, /snapshot, /view; POST
	// /stop) when non-empty.
	Addr string `cfg:"addr"`
	// ReadyFile, when non-empty, is atomically written with the
	// daemon's bound addresses once every subsystem is up.
	ReadyFile string `cfg:"ready_file"`
}

// GatewaySection configures the light-client sampling API (config keys
// under "gateway:"). The gateway is enabled when Addr is non-empty; its
// tuning is gateway.Config itself, whose fields carry their own keys.
type GatewaySection struct {
	// Addr serves GET /v1/sample and GET /healthz when non-empty.
	Addr string `cfg:"addr"`
	gateway.Config
}

// Workload kinds accepted by WorkloadSection.Kind.
const (
	WorkloadBroadcast = "broadcast"
	WorkloadAggregate = "aggregate"
)

// WorkloadSection configures the gossip application engine riding the
// node (config keys under "workload:"). The workload is enabled when
// Kind is non-empty; its counters flow through the metrics pipeline
// alongside the node's own. No field is hot: changing any knob means a
// different engine, and engine state (infection, running average)
// cannot be migrated live.
type WorkloadSection struct {
	// Kind selects the engine: "broadcast" (epidemic dissemination) or
	// "aggregate" (push-pull averaging). Empty disables the workload.
	Kind string `cfg:"kind"`
	// Period is the engine's round length; zero inherits node.period.
	Period time.Duration `cfg:"period"`
	// Fanout is how many peers the broadcast engine pushes to per round.
	Fanout int `cfg:"fanout"`
	// Mode selects the broadcast variant: "infect-forever" or
	// "infect-and-die".
	Mode string `cfg:"mode"`
	// TTL is how many rounds an infect-and-die node gossips after
	// infection.
	TTL int `cfg:"ttl"`
	// Initial is the aggregate engine's starting value.
	Initial float64 `cfg:"initial"`
}

// Default returns the runnable baseline configuration: a loopback
// tcp-pooled node with the paper's canonical protocol and no optional
// plugins enabled. LoadFile and flag overlays start from this, so a
// config file only needs the fields it changes.
func Default() Config {
	return Config{
		Version: Version,
		Node: NodeSection{
			Listen:   "127.0.0.1:0",
			Protocol: "(rand,head,pushpull)",
			ViewSize: 30,
			Period:   time.Second,
		},
		Transport: TransportSection{
			Backend: "tcp-pooled",
		},
		Metrics: MetricsSection{
			ReportInterval: 5 * time.Second,
		},
		Gateway: GatewaySection{
			Config: gateway.DefaultConfig(),
		},
		Workload: WorkloadSection{
			Fanout: 2,
			Mode:   "infect-forever",
			TTL:    3,
		},
	}
}

// Protocol parses the configured protocol tuple. Validate guarantees it
// parses, so callers after validation may ignore the error.
func (c Config) Protocol() (core.Protocol, error) {
	return core.ParseProtocol(c.Node.Protocol)
}

// GatewayEnabled reports whether the config asks for the sampling
// gateway.
func (c Config) GatewayEnabled() bool { return c.Gateway.Addr != "" }

// WorkloadEnabled reports whether the config asks for a gossip workload
// engine.
func (c Config) WorkloadEnabled() bool { return c.Workload.Kind != "" }

// Validate checks every field and returns the first violation as a
// field-path error ("node.view_size: must be positive"). A validated
// Default()-based config always passes.
func (c Config) Validate() error {
	if c.Version != Version {
		return fmt.Errorf("version: config schema version %d is not supported (this build speaks version %d)", c.Version, Version)
	}
	if err := validateHostPort("node.listen", c.Node.Listen, true); err != nil {
		return err
	}
	for i, contact := range c.Node.Contacts {
		if strings.TrimSpace(contact) == "" {
			return fmt.Errorf("node.contacts[%d]: empty contact address", i)
		}
	}
	if _, err := core.ParseProtocol(c.Node.Protocol); err != nil {
		return fmt.Errorf("node.protocol: %w", err)
	}
	if c.Node.ViewSize <= 0 {
		return fmt.Errorf("node.view_size: must be positive, got %d", c.Node.ViewSize)
	}
	if c.Node.Period <= 0 {
		return fmt.Errorf("node.period: must be positive, got %v", c.Node.Period)
	}
	if !backendKnown(c.Transport.Backend) {
		return fmt.Errorf("transport.backend: unknown backend %q (available: %v)", c.Transport.Backend, transport.Backends())
	}
	if err := c.Transport.Limits.Validate(); err != nil {
		return fmt.Errorf("transport.%w", err)
	}
	if err := validateHostPort("metrics.addr", c.Metrics.Addr, false); err != nil {
		return err
	}
	if c.Metrics.ReportInterval <= 0 {
		return fmt.Errorf("metrics.report_interval: must be positive, got %v", c.Metrics.ReportInterval)
	}
	if err := validateHostPort("control.addr", c.Control.Addr, false); err != nil {
		return err
	}
	if err := validateHostPort("gateway.addr", c.Gateway.Addr, false); err != nil {
		return err
	}
	if c.GatewayEnabled() {
		if c.Gateway.BatchSize <= 0 {
			return fmt.Errorf("gateway.batch_size: must be positive, got %d", c.Gateway.BatchSize)
		}
		if c.Gateway.Refresh <= 0 {
			return fmt.Errorf("gateway.refresh: must be positive, got %v", c.Gateway.Refresh)
		}
		if c.Gateway.RateRPS <= 0 {
			return fmt.Errorf("gateway.rate_rps: must be positive, got %v", c.Gateway.RateRPS)
		}
		if c.Gateway.Burst <= 0 {
			return fmt.Errorf("gateway.burst: must be positive, got %d", c.Gateway.Burst)
		}
		if err := c.Gateway.Config.Validate(); err != nil {
			return fmt.Errorf("gateway.%w", err)
		}
	}
	if err := validateWorkload(c.Workload); err != nil {
		return err
	}
	return nil
}

// validateWorkload checks the workload section; a disabled workload
// (empty kind) passes regardless of the other fields, so a template with
// tuned knobs can flip the engine on and off with one key. The mode
// names mirror broadcast.ParseMode — kept literal here so the config
// schema does not depend on the workload packages.
func validateWorkload(w WorkloadSection) error {
	switch w.Kind {
	case "":
		return nil
	case WorkloadBroadcast:
		if w.Fanout <= 0 {
			return fmt.Errorf("workload.fanout: must be positive, got %d", w.Fanout)
		}
		switch w.Mode {
		case "infect-forever":
		case "infect-and-die":
			if w.TTL <= 0 {
				return fmt.Errorf("workload.ttl: infect-and-die needs TTL > 0, got %d", w.TTL)
			}
		default:
			return fmt.Errorf("workload.mode: unknown mode %q (want \"infect-forever\" or \"infect-and-die\")", w.Mode)
		}
	case WorkloadAggregate:
		// Any initial value is legal, including zero.
	default:
		return fmt.Errorf("workload.kind: unknown workload %q (want %q or %q)", w.Kind, WorkloadBroadcast, WorkloadAggregate)
	}
	if w.Period < 0 {
		return fmt.Errorf("workload.period: must not be negative, got %v", w.Period)
	}
	return nil
}

// validateHostPort checks a "host:port" address; empty is allowed
// unless required (an optional plugin's empty address means disabled).
func validateHostPort(path, addr string, required bool) error {
	if addr == "" {
		if required {
			return fmt.Errorf("%s: must not be empty", path)
		}
		return nil
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("%s: malformed address %q (want host:port)", path, addr)
	}
	_ = host // an empty host binds every interface, which is the operator's call
	if port == "" {
		return fmt.Errorf("%s: malformed address %q (missing port)", path, addr)
	}
	return nil
}

// backendKnown reports whether the transport registry knows the name.
func backendKnown(name string) bool {
	for _, b := range transport.Backends() {
		if b == name {
			return true
		}
	}
	return false
}
