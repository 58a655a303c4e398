// Package config is the deployable daemon's configuration surface: a
// versioned JSON document covering the node, transport, metrics,
// control and gateway subsystems, with strict validation, defaulting,
// flag overlays and a reload diff.
//
// The package exists so that psnode can be booted from one file —
// `psnode -config psnode.json` — instead of an ever-growing flag list,
// and so that a running daemon can classify a changed file into fields
// it may apply live (transport limits, report interval, gateway tuning)
// versus fields that need a restart (listen address, protocol tuple,
// view size). The classification is a reload:"hot" struct tag on each
// hot field of Config; see Diff, and internal/daemon for the runtime that
// applies it.
//
// A setting a component owns is declared once, in that component: the
// transport and gateway sections embed transport.Limits and
// gateway.Config, whose fields carry their own cfg keys, zero-value
// defaults and validation rules. Config adds only document policy on top
// (a field path on every error; no zero gateway tuning while the gateway
// is enabled).
//
// Documents parse through encoding/json's token stream into a strict
// reader (Document) that internal/chaos shares for its plan files: a
// duplicate key, trailing data, an unknown key or a mistyped value fails
// with its dotted field path instead of being silently dropped.
package config
