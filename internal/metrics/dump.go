package metrics

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"peersampling/internal/app"
	"peersampling/internal/loop"
)

// Dumper appends periodic snapshot rounds of a Collector to a writer as
// long-form CSV rows (node,cycle,metric,value), the schema the
// internal/scenario renderers emit for the paper's figures. Construct
// with NewDumper, then either call Dump for each round or Start a
// background ticker. Methods are safe for concurrent use; output rounds
// never interleave.
type Dumper struct {
	collector *Collector

	mu          sync.Mutex
	w           io.Writer
	wroteHeader bool
	closer      io.Closer               // set when the dumper owns its file
	last        map[string]NodeSnapshot // previous round, for change detection
	rounds      *loop.Loop              // the Start loop; nil when stopped
}

// NewDumper returns a dumper appending to w. The CSV header is written
// before the first round only, so a dump file can span a whole run.
func NewDumper(c *Collector, w io.Writer) *Dumper {
	return &Dumper{collector: c, w: w}
}

// NewFileDumper opens (or creates) path in append mode and returns a
// dumper writing to it. A .jsonl or .ndjson path is an error: dumps are
// CSV only, and a config asking for JSONL should fail rather than get
// CSV under a JSONL name. The CSV header is written only when the file
// is empty, so a daemon restarted onto the same dump file keeps the
// document parseable instead of burying a second header mid-file. Close
// the dumper (after Stop) to close the file.
func NewFileDumper(c *Collector, path string) (*Dumper, error) {
	if ext := strings.ToLower(filepath.Ext(path)); ext == ".jsonl" || ext == ".ndjson" {
		return nil, fmt.Errorf("metrics: dump file %s: JSONL is not supported; dumps are long-form CSV", path)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("metrics: dump file: %w", err)
	}
	d := NewDumper(c, f)
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		d.wroteHeader = true
	}
	d.closer = f
	return d, nil
}

// Close closes the underlying dump file when the dumper owns one (it was
// built by NewFileDumper) and is a no-op otherwise. It does not stop a
// running ticker; call Stop first.
func (d *Dumper) Close() error {
	if d.closer == nil {
		return nil
	}
	return d.closer.Close()
}

// Dump appends one snapshot round, sampled at cycle granularity: a node
// is emitted only when its cycle counter has advanced since its last
// emitted snapshot (the first observation always lands). This keeps
// (node,cycle,metric) unique — matching the simulator's one observation
// per cycle, so value-by-cycle tooling never sees conflicting points —
// and makes a finished (closed) cluster left registered on the collector
// stop generating rows instead of appending frozen lines forever.
func (d *Dumper) Dump() error {
	all := d.collector.Snapshot()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.last == nil {
		d.last = make(map[string]NodeSnapshot, len(all))
	}
	snaps := make([]NodeSnapshot, 0, len(all))
	for _, s := range all {
		// Gateway counters are compared too: a gateway source's cycle
		// column is its refresh count, which stands still between refresh
		// ticks even while requests are being served.
		// Workload counters are compared too: an engine's rounds advance on
		// its own ticker, independent of the node's gossip cycles.
		if prev, ok := d.last[s.Node]; ok && prev.Cycles == s.Cycles &&
			gatewayUnchanged(prev.Gateway, s.Gateway) && appUnchanged(prev.App, s.App) {
			continue
		}
		snaps = append(snaps, trimChaos(s, d.last[s.Node]))
	}

	var b strings.Builder
	if !d.wroteHeader {
		b.WriteString(LongHeader("node"))
	}
	for _, s := range snaps {
		AppendLongRows(&b, s.Rows())
	}
	if _, err := io.WriteString(d.w, b.String()); err != nil {
		return err
	}
	// Commit the round only after the write landed: a transient write
	// failure must not mark these observations as already dumped, or a
	// retry (or Stop's final round) would suppress them forever.
	d.wroteHeader = true
	for _, s := range snaps {
		d.last[s.Node] = s
	}
	return nil
}

// trimChaos drops the chaos events already emitted for this source in a
// previous round, so each applied step lands in the dump exactly once
// and (node,cycle,metric) stays unique. prev.Chaos.Events is cumulative,
// which makes it the high-water mark into the Fired timeline.
func trimChaos(s, prev NodeSnapshot) NodeSnapshot {
	if s.Chaos == nil || prev.Chaos == nil {
		return s
	}
	done := int(prev.Chaos.Events)
	if done <= 0 || done > len(s.Chaos.Fired) {
		return s
	}
	trimmed := *s.Chaos
	trimmed.Fired = trimmed.Fired[done:]
	s.Chaos = &trimmed
	return s
}

// appUnchanged compares two workload snapshots; app.Snapshot is all
// scalars, so plain equality is the whole comparison.
func appUnchanged(prev, cur *app.Snapshot) bool {
	if prev == nil || cur == nil {
		return prev == cur
	}
	return *prev == *cur
}

// gatewayUnchanged compares two gateway snapshots ignoring the cache
// age: age advances with the clock alone, and letting it count as change
// would emit an idle gateway's frozen counters every round forever.
func gatewayUnchanged(prev, cur *GatewaySnapshot) bool {
	if prev == nil || cur == nil {
		return prev == cur
	}
	a, b := *prev, *cur
	a.CacheAgeSeconds, b.CacheAgeSeconds = 0, 0
	// The latency snapshot is a fresh pointer every poll; comparing it
	// would defeat change detection. Latency only moves with Requests, so
	// dropping it from the comparison loses nothing.
	a.Latency, b.Latency = nil, nil
	return a == b
}

// Start dumps one round every interval on a background goroutine until
// Stop. A non-positive interval is clamped to one second rather than
// panicking the ticker. Write errors stop the loop; a broken dump file
// is not worth stalling a daemon over. Start on a running dumper does
// nothing; after Stop it starts a new loop.
func (d *Dumper) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.rounds == nil {
		d.rounds = loop.Every(func() time.Duration { return interval },
			func() bool { return d.Dump() == nil })
	}
}

// Stop halts a Started dumper, appends one final round so short runs are
// never empty, and returns the final round's error. Stop on a dumper that
// is not running just writes the final round.
func (d *Dumper) Stop() error {
	d.mu.Lock()
	rounds := d.rounds
	d.rounds = nil
	d.mu.Unlock()
	if rounds != nil {
		rounds.Stop()
	}
	return d.Dump()
}
