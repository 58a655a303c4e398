package config

import (
	"reflect"
	"slices"
)

// ReloadDiff classifies the fields that changed between a running
// daemon's config and a freshly loaded one. Hot fields may be applied
// to the live daemon (internal/daemon does so on SIGHUP); Restart
// fields describe a different daemon and require a process restart to
// take effect.
type ReloadDiff struct {
	// Hot lists changed field paths the daemon can apply live.
	Hot []string
	// Restart lists changed field paths that need a restart.
	Restart []string
}

// Empty reports whether nothing changed.
func (d ReloadDiff) Empty() bool { return len(d.Hot) == 0 && len(d.Restart) == 0 }

// Diff compares two configs field by field, in declaration order. A
// changed field is hot when its struct tag says reload:"hot" — exactly
// the fields the daemon knows how to apply without recreating the node
// or rebinding a listener: transport hardening limits, the report
// interval, gateway tuning, and bootstrap contacts (Init merges added
// ones into the live view).
func Diff(old, new Config) ReloadDiff {
	var d ReloadDiff
	o, n := reflect.ValueOf(old), reflect.ValueOf(new)
	for _, l := range leaves {
		if equal(o.FieldByIndex(l.index), n.FieldByIndex(l.index)) {
			continue
		}
		if l.hot {
			d.Hot = append(d.Hot, l.path())
		} else {
			d.Restart = append(d.Restart, l.path())
		}
	}
	return d
}

// equal compares two leaf values; a nil and an empty contact list are
// the same list.
func equal(a, b reflect.Value) bool {
	if a.Kind() == reflect.Slice {
		return slices.Equal(a.Interface().([]string), b.Interface().([]string))
	}
	return a.Interface() == b.Interface()
}

// MergeHot copies the hot fields of new onto old, returning the config
// a daemon actually runs after a live reload: hot fields from the new
// file, everything restart-required kept as-is. It reads the same tags
// as Diff, so the two cannot disagree about which fields are hot.
func MergeHot(old, new Config) Config {
	merged := old
	m, n := reflect.ValueOf(&merged).Elem(), reflect.ValueOf(new)
	for _, l := range leaves {
		if l.hot {
			m.FieldByIndex(l.index).Set(n.FieldByIndex(l.index))
		}
	}
	return merged
}
