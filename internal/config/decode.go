package config

import (
	"encoding/json"
	"fmt"
	"os"
)

// LoadFile loads, defaults and validates a JSON config file. Fields
// absent from the file keep their Default() values; unknown fields and
// type mismatches are errors with the file name and field path attached.
func LoadFile(path string) (Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	cfg, err := Parse(raw)
	if err != nil {
		return Config{}, fmt.Errorf("config: %s: %w", path, err)
	}
	return cfg, nil
}

// Parse decodes one JSON config document over the defaults and
// validates the result.
func Parse(raw []byte) (Config, error) {
	doc, err := ParseDocument(raw)
	if err != nil {
		return Config{}, err
	}
	cfg := Default()
	if err := decodeDocument(doc, &cfg); err != nil {
		return Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// decodeDocument maps the parsed document onto cfg, strictly: a key the
// schema does not define is an error naming its path, so a typo never
// silently configures nothing.
func decodeDocument(root *Document, cfg *Config) error {
	if err := root.Int("version", &cfg.Version); err != nil {
		return err
	}
	if node := root.Sub("node"); node != nil {
		if err := decodeNode(node, &cfg.Node); err != nil {
			return err
		}
	}
	if tr := root.Sub("transport"); tr != nil {
		if err := decodeTransport(tr, &cfg.Transport); err != nil {
			return err
		}
	}
	if m := root.Sub("metrics"); m != nil {
		if err := decodeMetrics(m, &cfg.Metrics); err != nil {
			return err
		}
	}
	if ctl := root.Sub("control"); ctl != nil {
		if err := decodeControl(ctl, &cfg.Control); err != nil {
			return err
		}
	}
	if gw := root.Sub("gateway"); gw != nil {
		if err := decodeGateway(gw, &cfg.Gateway); err != nil {
			return err
		}
	}
	if wl := root.Sub("workload"); wl != nil {
		if err := decodeWorkload(wl, &cfg.Workload); err != nil {
			return err
		}
	}
	return root.Finish()
}

func decodeNode(d *Document, n *NodeSection) error {
	return firstErr(
		d.Str("listen", &n.Listen),
		d.StrList("contacts", &n.Contacts),
		d.Str("protocol", &n.Protocol),
		d.Int("view_size", &n.ViewSize),
		d.Duration("period", &n.Period),
		d.Bool("diverse", &n.Diverse),
	)
}

func decodeTransport(d *Document, t *TransportSection) error {
	return firstErr(
		d.Str("backend", &t.Backend),
		d.Int("max_conns", &t.MaxConns),
		d.Duration("keepalive", &t.KeepAlive),
		d.Duration("push_only_keepalive", &t.PushOnlyKeepAlive),
		d.Duration("first_frame_timeout", &t.FirstFrameTimeout),
	)
}

func decodeMetrics(d *Document, m *MetricsSection) error {
	return firstErr(
		d.Str("addr", &m.Addr),
		d.Str("dump", &m.Dump),
		d.Duration("report_interval", &m.ReportInterval),
	)
}

func decodeControl(d *Document, c *ControlSection) error {
	return firstErr(
		d.Str("addr", &c.Addr),
		d.Str("ready_file", &c.ReadyFile),
	)
}

func decodeGateway(d *Document, g *GatewaySection) error {
	return firstErr(
		d.Str("addr", &g.Addr),
		d.Int("batch_size", &g.BatchSize),
		d.Duration("refresh", &g.Refresh),
		d.Float("rate_rps", &g.RateRPS),
		d.Int("burst", &g.Burst),
		d.Bool("trust_proxy_header", &g.TrustProxyHeader),
	)
}

func decodeWorkload(d *Document, w *WorkloadSection) error {
	return firstErr(
		d.Str("kind", &w.Kind),
		d.Duration("period", &w.Period),
		d.Int("fanout", &w.Fanout),
		d.Str("mode", &w.Mode),
		d.Int("ttl", &w.TTL),
		d.Float("initial", &w.Initial),
	)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes cfg as a JSON config document at path — the exact
// document LoadFile round-trips. The subprocess fleet driver uses this
// to hand each forked psnode one file instead of a flag list.
func WriteFile(path string, cfg Config) error {
	raw, err := json.MarshalIndent(encode(cfg), "", "  ")
	if err != nil {
		return fmt.Errorf("config: encode: %w", err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

// encode renders cfg into the document shape the decoder accepts, with
// durations as strings. Every field is emitted, defaults included: a
// generated file should read as the daemon's complete effective
// configuration, not a diff against defaults the reader must know.
func encode(cfg Config) map[string]any {
	contacts := cfg.Node.Contacts
	if contacts == nil {
		contacts = []string{}
	}
	return map[string]any{
		"version": cfg.Version,
		"node": map[string]any{
			"listen":    cfg.Node.Listen,
			"contacts":  contacts,
			"protocol":  cfg.Node.Protocol,
			"view_size": cfg.Node.ViewSize,
			"period":    cfg.Node.Period.String(),
			"diverse":   cfg.Node.Diverse,
		},
		"transport": map[string]any{
			"backend":             cfg.Transport.Backend,
			"max_conns":           cfg.Transport.MaxConns,
			"keepalive":           cfg.Transport.KeepAlive.String(),
			"push_only_keepalive": cfg.Transport.PushOnlyKeepAlive.String(),
			"first_frame_timeout": cfg.Transport.FirstFrameTimeout.String(),
		},
		"metrics": map[string]any{
			"addr":            cfg.Metrics.Addr,
			"dump":            cfg.Metrics.Dump,
			"report_interval": cfg.Metrics.ReportInterval.String(),
		},
		"control": map[string]any{
			"addr":       cfg.Control.Addr,
			"ready_file": cfg.Control.ReadyFile,
		},
		"gateway": map[string]any{
			"addr":               cfg.Gateway.Addr,
			"batch_size":         cfg.Gateway.BatchSize,
			"refresh":            cfg.Gateway.Refresh.String(),
			"rate_rps":           cfg.Gateway.RateRPS,
			"burst":              cfg.Gateway.Burst,
			"trust_proxy_header": cfg.Gateway.TrustProxyHeader,
		},
		"workload": map[string]any{
			"kind":    cfg.Workload.Kind,
			"period":  cfg.Workload.Period.String(),
			"fanout":  cfg.Workload.Fanout,
			"mode":    cfg.Workload.Mode,
			"ttl":     cfg.Workload.TTL,
			"initial": cfg.Workload.Initial,
		},
	}
}
