package config

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"time"
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

// leaf is one tagged leaf field of Config: the document section it sits
// in ("" for top-level keys), its key, whether a live reload may apply
// it, and its reflect index path.
type leaf struct {
	section, key string
	hot          bool
	index        []int
}

// path is the leaf's dotted field path, as error messages and ReloadDiff
// spell it.
func (l leaf) path() string { return joinKey(l.section, l.key) }

// leaves is every cfg-tagged leaf of Config in declaration order, which
// is the order decoding reads them and Diff reports them. Sections nest
// one level deep, like the document.
var leaves = walk(reflect.TypeOf(Config{}), "", nil)

// walk collects the cfg-tagged leaves of the struct type t; a tagged
// struct-typed field is a section whose fields are walked in turn, and an
// untagged embedded struct lends its leaves to the enclosing section.
func walk(t reflect.Type, section string, index []int) []leaf {
	var out []leaf
	for i := range t.NumField() {
		f := t.Field(i)
		key, ok := f.Tag.Lookup("cfg")
		idx := append(slices.Clone(index), i)
		if !ok {
			if f.Anonymous {
				out = append(out, walk(f.Type, section, idx)...)
			}
			continue
		}
		if f.Type.Kind() == reflect.Struct {
			out = append(out, walk(f.Type, joinKey(section, key), idx)...)
			continue
		}
		out = append(out, leaf{section, key, f.Tag.Get("reload") == "hot", idx})
	}
	return out
}

// decodeDocument maps the parsed document onto cfg, strictly: a key the
// schema does not define is an error naming its path, so a typo never
// silently configures nothing.
func decodeDocument(root *Document, cfg *Config) error {
	v := reflect.ValueOf(cfg).Elem()
	sections := map[string]*Document{"": root}
	for _, l := range leaves {
		d, opened := sections[l.section]
		if !opened {
			d = root.Sub(l.section)
			sections[l.section] = d
		}
		if d == nil {
			continue // section absent: its defaults stand
		}
		if err := read(d, l.key, v.FieldByIndex(l.index).Addr().Interface()); err != nil {
			return err
		}
	}
	return root.Finish()
}

// read decodes one leaf through the Document getter for its type.
func read(d *Document, key string, dst any) error {
	switch p := dst.(type) {
	case *string:
		return d.Str(key, p)
	case *[]string:
		return d.StrList(key, p)
	case *int:
		return d.Int(key, p)
	case *float64:
		return d.Float(key, p)
	case *bool:
		return d.Bool(key, p)
	case *time.Duration:
		return d.Duration(key, p)
	}
	panic(fmt.Sprintf("config: no reader for %s of type %T", key, dst))
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
	v := reflect.ValueOf(cfg)
	doc := map[string]any{}
	for _, l := range leaves {
		m := doc
		if l.section != "" {
			sub, ok := doc[l.section].(map[string]any)
			if !ok {
				sub = map[string]any{}
				doc[l.section] = sub
			}
			m = sub
		}
		val := v.FieldByIndex(l.index).Interface()
		switch x := val.(type) {
		case time.Duration:
			val = x.String()
		case []string:
			if x == nil {
				val = []string{}
			}
		}
		m[l.key] = val
	}
	return doc
}
