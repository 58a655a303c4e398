package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"
)

// The package's strict document machinery is exported so other layers
// (internal/chaos plan files) parse their own versioned documents with
// the same JSON front end, dotted field-path errors and unknown-key
// rejection as the daemon config.

// maxDepth bounds document nesting. Every document this repo defines is
// at most three levels deep; the bound keeps a hostile input from
// recursing the walk without limit.
const maxDepth = 32

// ParseDocument parses one JSON document for strict reading. The top
// level must be an object; a duplicate key anywhere (named by its path)
// and any data after the document are errors, so no value is silently
// dropped or overwritten.
func ParseDocument(raw []byte) (*Document, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	v, err := readValue(dec, "", 0)
	if err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("malformed JSON at byte %d: data after the document", dec.InputOffset())
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("malformed JSON: want an object at the top level, got %s", typeName(v))
	}
	return newDocument("", m), nil
}

// readValue reads one JSON value token by token into map[string]any /
// []any / json.Number / string / bool / nil. path names the value in
// duplicate-key errors.
func readValue(dec *json.Decoder, path string, depth int) (any, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("malformed JSON: nesting deeper than %d", maxDepth)
	}
	tok, err := nextToken(dec)
	if err != nil {
		return nil, err
	}
	switch tok {
	case json.Delim('{'):
		m := map[string]any{}
		for dec.More() {
			key, err := nextToken(dec)
			if err != nil {
				return nil, err
			}
			// Token only yields a string in object-key position.
			k := key.(string)
			kpath := joinKey(path, k)
			if _, dup := m[k]; dup {
				return nil, fmt.Errorf("%s: duplicate key", kpath)
			}
			if m[k], err = readValue(dec, kpath, depth+1); err != nil {
				return nil, err
			}
		}
		_, err := nextToken(dec) // the closing '}'
		return m, err
	case json.Delim('['):
		seq := []any{}
		for i := 0; dec.More(); i++ {
			v, err := readValue(dec, fmt.Sprintf("%s[%d]", path, i), depth+1)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
		}
		_, err := nextToken(dec) // the closing ']'
		return seq, err
	}
	return tok, nil
}

// nextToken reads one token, reporting a truncated document as malformed
// rather than as a bare EOF.
func nextToken(dec *json.Decoder) (json.Token, error) {
	tok, err := dec.Token()
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("malformed JSON at byte %d: %w", dec.InputOffset(), err)
	}
	return tok, nil
}

// joinKey joins a document path and a field name into the dotted error
// path.
func joinKey(path, name string) string {
	if path == "" {
		return name
	}
	return path + "." + name
}

// Document reads typed values out of one parsed mapping, strictly: every
// error carries the dotted field path, and Finish rejects any key no
// reader consumed. Obtain the root with ParseDocument, nested mappings
// with Sub, and sequences of mappings with Seq.
type Document struct {
	path     string
	m        map[string]any
	used     map[string]bool
	children []*Document
	// typeErr poisons a document whose value was not a mapping; every
	// read reports it instead of inventing field-level errors.
	typeErr error
}

func newDocument(path string, m map[string]any) *Document {
	return &Document{path: path, m: m, used: map[string]bool{}}
}

// key joins the document path and a field name into the error path.
func (d *Document) key(name string) string { return joinKey(d.path, name) }

// take consumes a key, returning (nil, false) when absent or null so
// the default survives.
func (d *Document) take(name string) (any, bool) {
	v, ok := d.m[name]
	if !ok {
		return nil, false
	}
	d.used[name] = true
	if v == nil {
		return nil, false
	}
	return v, true
}

// Sub returns the nested mapping under name, or nil when the key is
// absent. A present non-mapping value surfaces as an error from the
// child's first read (or its Finish).
func (d *Document) Sub(name string) *Document {
	v, ok := d.take(name)
	if !ok {
		return nil
	}
	m, isMap := v.(map[string]any)
	// Returning a poisoned child keeps call sites uniform; the type error
	// surfaces from the first field read.
	child := newDocument(d.key(name), m)
	if !isMap {
		child.typeErr = fmt.Errorf("%s: want a mapping, got %s", d.key(name), typeName(v))
	}
	d.children = append(d.children, child)
	return child
}

// Seq returns the sequence of mappings under name, one Document per
// element ("name[i]" in error paths), or nil when the key is absent. A
// present value that is not a list of mappings is an error.
func (d *Document) Seq(name string) ([]*Document, error) {
	if d.typeErr != nil {
		return nil, d.typeErr
	}
	v, ok := d.take(name)
	if !ok {
		return nil, nil
	}
	seq, isSeq := v.([]any)
	if !isSeq {
		return nil, fmt.Errorf("%s: want a list of mappings, got %s", d.key(name), typeName(v))
	}
	docs := make([]*Document, len(seq))
	for i, item := range seq {
		m, isMap := item.(map[string]any)
		if !isMap {
			return nil, fmt.Errorf("%s[%d]: want a mapping, got %s", d.key(name), i, typeName(item))
		}
		// Registered as a child so Finish sweeps the element's unknown
		// keys exactly like a named sub-document's.
		docs[i] = newDocument(fmt.Sprintf("%s[%d]", d.key(name), i), m)
		d.children = append(d.children, docs[i])
	}
	return docs, nil
}

// Str reads an optional string field.
func (d *Document) Str(name string, dst *string) error {
	if d.typeErr != nil {
		return d.typeErr
	}
	v, ok := d.take(name)
	if !ok {
		return nil
	}
	str, isStr := v.(string)
	if !isStr {
		return fmt.Errorf("%s: want a string, got %s", d.key(name), typeName(v))
	}
	*dst = str
	return nil
}

// StrList reads an optional list-of-strings field. A single bare string
// is accepted as a one-element list: the common one-contact case should
// not need brackets.
func (d *Document) StrList(name string, dst *[]string) error {
	if d.typeErr != nil {
		return d.typeErr
	}
	v, ok := d.take(name)
	if !ok {
		return nil
	}
	seq, isSeq := v.([]any)
	if !isSeq {
		if str, isStr := v.(string); isStr {
			*dst = []string{str}
			return nil
		}
		return fmt.Errorf("%s: want a list of strings, got %s", d.key(name), typeName(v))
	}
	out := make([]string, len(seq))
	for i, item := range seq {
		str, isStr := item.(string)
		if !isStr {
			return fmt.Errorf("%s[%d]: want a string, got %s", d.key(name), i, typeName(item))
		}
		out[i] = str
	}
	*dst = out
	return nil
}

// Int reads an optional integer field.
func (d *Document) Int(name string, dst *int) error {
	if d.typeErr != nil {
		return d.typeErr
	}
	v, ok := d.take(name)
	if !ok {
		return nil
	}
	n, isNum := v.(json.Number)
	if !isNum {
		return fmt.Errorf("%s: want an integer, got %s", d.key(name), typeName(v))
	}
	i, err := n.Int64()
	if err != nil {
		return fmt.Errorf("%s: want an integer, got %q", d.key(name), n.String())
	}
	*dst = int(i)
	return nil
}

// Float reads an optional number field.
func (d *Document) Float(name string, dst *float64) error {
	if d.typeErr != nil {
		return d.typeErr
	}
	v, ok := d.take(name)
	if !ok {
		return nil
	}
	n, isNum := v.(json.Number)
	if !isNum {
		return fmt.Errorf("%s: want a number, got %s", d.key(name), typeName(v))
	}
	f, err := n.Float64()
	if err != nil {
		return fmt.Errorf("%s: want a number, got %q", d.key(name), n.String())
	}
	*dst = f
	return nil
}

// Bool reads an optional boolean field.
func (d *Document) Bool(name string, dst *bool) error {
	if d.typeErr != nil {
		return d.typeErr
	}
	v, ok := d.take(name)
	if !ok {
		return nil
	}
	b, isBool := v.(bool)
	if !isBool {
		return fmt.Errorf("%s: want true or false, got %s", d.key(name), typeName(v))
	}
	*dst = b
	return nil
}

// Duration reads an optional Go duration string field ("250ms", "1m30s").
// Bare numbers are rejected: a period of 5 is ambiguous between seconds
// and nanoseconds, and guessing either would misconfigure someone.
func (d *Document) Duration(name string, dst *time.Duration) error {
	if d.typeErr != nil {
		return d.typeErr
	}
	v, ok := d.take(name)
	if !ok {
		return nil
	}
	str, isStr := v.(string)
	if !isStr {
		return fmt.Errorf("%s: want a duration string like \"250ms\" or \"1m\", got %s", d.key(name), typeName(v))
	}
	dur, err := time.ParseDuration(str)
	if err != nil {
		return fmt.Errorf("%s: malformed duration %q", d.key(name), str)
	}
	*dst = dur
	return nil
}

// Finish errors on any key in this document or anything reached through
// Sub/Seq that no reader consumed — call it once on the root after all
// fields are read.
func (d *Document) Finish() error {
	if d.typeErr != nil {
		return d.typeErr
	}
	var unknown []string
	for k := range d.m {
		if !d.used[k] {
			unknown = append(unknown, d.key(k))
		}
	}
	for _, child := range d.children {
		if err := child.Finish(); err != nil {
			return err
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("%s: unknown field", unknown[0])
	}
	return nil
}

func typeName(v any) string {
	switch v.(type) {
	case string:
		return "a string"
	case bool:
		return "a boolean"
	case json.Number:
		return "a number"
	case []any:
		return "a list"
	case map[string]any:
		return "a mapping"
	case nil:
		return "null"
	default:
		return fmt.Sprintf("%T", v)
	}
}
