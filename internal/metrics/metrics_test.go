package metrics

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"peersampling/internal/app"
	"peersampling/internal/core"
	"peersampling/internal/transport"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// fakeSource is a deterministic Source for exporter tests.
type fakeSource struct {
	addr                       string
	cycles, ex, failed, served uint64
	wire                       *transport.Stats
	view                       []core.Descriptor[string]
}

func (f *fakeSource) Addr() string { return f.addr }
func (f *fakeSource) Stats() (uint64, uint64, uint64, uint64) {
	return f.cycles, f.ex, f.failed, f.served
}
func (f *fakeSource) TransportStats() (transport.Stats, bool) {
	if f.wire == nil {
		return transport.Stats{}, false
	}
	return *f.wire, true
}
func (f *fakeSource) View() []core.Descriptor[string] { return f.view }

// latFakeSource is a fakeSource that also keeps an exchange-latency
// histogram, like runtime.Node does.
type latFakeSource struct {
	fakeSource
	lat transport.LatencySnapshot
}

func (f *latFakeSource) ExchangeLatency() transport.LatencySnapshot { return f.lat }

// fixedLatency returns a deterministic histogram: ten exchanges at ~2ms,
// one at ~30ms.
func fixedLatency() transport.LatencySnapshot {
	var h transport.LatencyHistogram
	for i := 0; i < 10; i++ {
		h.Observe(2 * time.Millisecond)
	}
	h.Observe(30 * time.Millisecond)
	return h.Snapshot()
}

// appFakeSource is a latFakeSource that also runs a workload engine.
type appFakeSource struct {
	latFakeSource
	app app.Snapshot
}

func (f *appFakeSource) AppSnapshot() (app.Snapshot, bool) { return f.app, true }

// fixedCollector returns a collector with time pinned over every kind of
// source the exporters render: a node with wire counters, a latency
// histogram and a populated view; a bare node; a node running a workload
// engine; a sampling gateway with a serve-time histogram; and a chaos
// executor that has fired two events.
func fixedCollector() *Collector {
	c := New()
	c.now = func() time.Time { return time.UnixMilli(1700000000000) }
	c.Register("alpha", &latFakeSource{
		fakeSource: fakeSource{
			addr: "127.0.0.1:7946", cycles: 12, ex: 10, failed: 2, served: 9,
			wire: &transport.Stats{
				Dials: 1, Reuses: 2, BytesOut: 3, BytesIn: 4, FramesOut: 5,
				FramesIn: 6, DatagramsDropped: 7, AcceptRejects: 8, KeepAliveEvictions: 9,
			},
			view: []core.Descriptor[string]{{Addr: "p1", Hop: 1}, {Addr: "p2", Hop: 2}, {Addr: "p3", Hop: 6}},
		},
		lat: fixedLatency(),
	})
	c.Register("beta", &fakeSource{addr: "fabric-b", cycles: 1})
	c.Register("gamma", &appFakeSource{
		latFakeSource: latFakeSource{
			fakeSource: fakeSource{
				addr: "127.0.0.1:7947", cycles: 4, ex: 3, served: 5,
				wire: &transport.Stats{Dials: 2, Reuses: 1, BytesOut: 300, BytesIn: 200, FramesOut: 3, FramesIn: 3},
				view: []core.Descriptor[string]{{Addr: "p1", Hop: 0}, {Addr: "p4", Hop: 3}},
			},
			lat: fixedLatency(),
		},
		app: app.Snapshot{Workload: "broadcast", Rounds: 7, Sent: 14, Received: 11, Failures: 1, Infected: 1, Value: 0.25},
	})
	c.RegisterFunc("gateway", func(int64) NodeSnapshot {
		lat := fixedLatency()
		return NodeSnapshot{Addr: "127.0.0.1:8080", Cycles: 6, Gateway: &GatewaySnapshot{
			Requests: 40, PeersServed: 120, RateLimited: 3, Unavailable: 1, Refreshes: 6,
			Clients: 5, CacheSize: 30, CacheAgeSeconds: 0.75, Latency: &lat,
		}}
	})
	c.RegisterFunc("chaos", func(int64) NodeSnapshot {
		return NodeSnapshot{Cycles: 2, Chaos: &ChaosSnapshot{
			Plan: "churn", Events: 2, ActiveRules: 1, Killed: 3, Respawned: 2, FloodDials: 0,
			Fired: []ChaosEvent{
				{Seq: 0, Action: "kill", AtSeconds: 1, UnixMillis: 1700000001000, Targets: 3},
				{Seq: 1, Action: "partition", AtSeconds: 2.5, UnixMillis: 1700000002500, Targets: 1},
			},
		}}
	})
	return c
}

func TestCollectorSnapshot(t *testing.T) {
	snaps := fixedCollector().Snapshot()
	if len(snaps) != 5 {
		t.Fatalf("snapshots = %d want 5", len(snaps))
	}
	a := snaps[0]
	if a.Node != "alpha" || a.Addr != "127.0.0.1:7946" || a.UnixMillis != 1700000000000 {
		t.Errorf("identity wrong: %+v", a)
	}
	if a.Cycles != 12 || a.Exchanges != 10 || a.Failures != 2 || a.Served != 9 {
		t.Errorf("protocol counters wrong: %+v", a)
	}
	if a.Wire == nil || a.Wire.KeepAliveEvictions != 9 {
		t.Errorf("wire counters wrong: %+v", a.Wire)
	}
	if a.ViewSize != 3 || a.HopMin != 1 || a.HopMax != 6 || a.HopMean != 3 {
		t.Errorf("view shape wrong: %+v", a)
	}
	if a.Latency == nil || a.Latency.Count != 11 {
		t.Errorf("latency histogram wrong: %+v", a.Latency)
	}
	if a.Stale {
		t.Error("fresh local source marked stale")
	}
	b := snaps[1]
	if b.Wire != nil {
		t.Errorf("bare node grew wire counters: %+v", b.Wire)
	}
	if b.Latency != nil {
		t.Errorf("bare node grew a latency histogram: %+v", b.Latency)
	}
	if b.ViewSize != 0 || b.HopMin != 0 || b.HopMax != 0 || b.HopMean != 0 {
		t.Errorf("empty view shape wrong: %+v", b)
	}
}

// flakyPoller answers until failAfter polls have happened, then errors —
// a fleet member dying mid-run.
type flakyPoller struct {
	polls     int
	failAfter int
	snap      NodeSnapshot
}

func (p *flakyPoller) Poll() (NodeSnapshot, error) {
	p.polls++
	if p.polls > p.failAfter {
		return NodeSnapshot{}, errors.New("connection refused")
	}
	return p.snap, nil
}

// A dead poller must not vanish from Snapshot: its last good snapshot is
// replayed marked Stale, with the original poll time preserved for the
// last-update gauge.
func TestCollectorServesStaleSnapshotForDeadPoller(t *testing.T) {
	c := New()
	times := []int64{1000, 2000, 3000}
	c.now = func() time.Time { ms := times[0]; times = times[1:]; return time.UnixMilli(ms) }
	c.RegisterPoller("member", &flakyPoller{
		failAfter: 1,
		snap:      NodeSnapshot{Addr: "10.0.0.1:7946", Cycles: 5, ViewSize: 3},
	})

	fresh := c.Snapshot()
	if len(fresh) != 1 || fresh[0].Stale || fresh[0].Node != "member" {
		t.Fatalf("fresh poll wrong: %+v", fresh)
	}
	if fresh[0].UnixMillis != 1000 || fresh[0].Cycles != 5 {
		t.Fatalf("fresh snapshot contents wrong: %+v", fresh[0])
	}

	for round := 0; round < 2; round++ {
		stale := c.Snapshot()
		if !stale[0].Stale {
			t.Fatalf("round %d: dead poller not marked stale: %+v", round, stale[0])
		}
		if stale[0].UnixMillis != 1000 {
			t.Errorf("round %d: last-update advanced on a dead source: %+v", round, stale[0])
		}
		if stale[0].Cycles != 5 || stale[0].Addr != "10.0.0.1:7946" {
			t.Errorf("round %d: cached contents lost: %+v", round, stale[0])
		}
	}
}

// A poller that never answered still appears, as a zero snapshot marked
// stale, and the exposition shows source_up 0 for it.
func TestCollectorExposesNeverReachedPoller(t *testing.T) {
	c := New()
	c.now = func() time.Time { return time.UnixMilli(1700000000000) }
	c.RegisterPoller("ghost", &flakyPoller{failAfter: 0})
	snaps := c.Snapshot()
	if len(snaps) != 1 || !snaps[0].Stale || snaps[0].UnixMillis != 0 {
		t.Fatalf("ghost snapshot wrong: %+v", snaps)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `peersampling_source_up{node="ghost",addr=""} 0`) {
		t.Errorf("no source_up 0 sample for the ghost:\n%s", buf.String())
	}
}

// The collector's registered name wins over whatever Node name the
// remote process reported in its own snapshot.
func TestRegisterPollerNamesAndUniquifies(t *testing.T) {
	c := New()
	c.now = func() time.Time { return time.UnixMilli(1) }
	c.RegisterPoller("n", &flakyPoller{failAfter: 99, snap: NodeSnapshot{Node: "self-reported"}})
	c.RegisterPoller("", &flakyPoller{failAfter: 99})
	c.RegisterPoller("", &flakyPoller{failAfter: 99})
	snaps := c.Snapshot()
	if snaps[0].Node != "n" || snaps[1].Node != "remote" || snaps[2].Node != "remote#2" {
		t.Errorf("names = %q %q %q", snaps[0].Node, snaps[1].Node, snaps[2].Node)
	}
}

func TestRegisterUniquifiesNames(t *testing.T) {
	c := New()
	c.Register("n", &fakeSource{addr: "a"})
	c.Register("n", &fakeSource{addr: "b"})
	c.Register("", &fakeSource{addr: "c"})
	snaps := c.Snapshot()
	if snaps[0].Node != "n" || snaps[1].Node != "n#2" || snaps[2].Node != "c" {
		t.Errorf("names = %q %q %q", snaps[0].Node, snaps[1].Node, snaps[2].Node)
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
	}
}

// The exposition output is compared byte-for-byte against a golden file:
// the format is a contract with external scrapers, so accidental drift
// must be loud. Regenerate with -update-golden after intentional changes.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedCollector().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const goldenPath = "testdata/exposition.golden"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// The long-form rows of the same fixture are pinned the same way, sorted:
// the dump schema is a contract with external tooling, while the order of
// rows within one snapshot is not.
func TestRowsGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range fixedCollector().Snapshot() {
		AppendLongRows(&b, s.Rows())
	}
	lines := strings.SplitAfter(b.String(), "\n")
	sort.Strings(lines)
	got := []byte(strings.Join(lines, ""))
	const goldenPath = "testdata/rows.golden"
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
		t.Errorf("long-form rows drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// Label values may arrive from a remote /snapshot body. The exposition
// format defines only the \\, \" and \n escapes, so a tab or CR is
// written as is, and an invalid byte becomes U+FFFD to keep the output
// UTF-8.
func TestPrometheusEscapesLabels(t *testing.T) {
	snaps := []NodeSnapshot{{Node: "a\tb\rc\\d\"e\nf\xffg", Addr: "x\ty"}}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	want := "peersampling_cycles_total{node=\"a\tb\rc\\\\d\\\"e\\nf\uFFFDg\",addr=\"x\ty\"} 0\n"
	if !strings.Contains(buf.String(), want) {
		t.Errorf("exposition lacks %q:\n%s", want, buf.String())
	}
}

// Every transport counter must appear as its own family: the names come
// from transport.Stats.Named, so this holds by construction — the test
// pins the contract.
func TestPrometheusCoversAllWireCounters(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedCollector().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, c := range (transport.Stats{}).Named() {
		family := "peersampling_transport_" + c.Name + "_total"
		if !strings.Contains(out, "# TYPE "+family+" counter") {
			t.Errorf("family %s missing from exposition", family)
		}
	}
}

func TestLongCSVRoundTrip(t *testing.T) {
	snaps := fixedCollector().Snapshot()
	var rows []LongRow
	for _, s := range snaps {
		rows = append(rows, s.Rows()...)
	}
	doc := LongCSV("node", rows)
	key, parsed, err := ParseLongCSV(doc)
	if err != nil {
		t.Fatal(err)
	}
	if key != "node" {
		t.Errorf("key column = %q", key)
	}
	if len(parsed) != len(rows) {
		t.Fatalf("parsed %d rows want %d", len(parsed), len(rows))
	}
	for i, r := range rows {
		p := parsed[i]
		// Values survive modulo the %.6f rendering.
		if p.Key != r.Key || p.Cycle != r.Cycle || p.Metric != r.Metric ||
			p.Value < r.Value-1e-6 || p.Value > r.Value+1e-6 {
			t.Errorf("row %d: %+v != %+v", i, p, r)
		}
	}
	// One row per protocol counter, view gauge, wire counter, and the
	// two latency quantile columns.
	wantAlpha := 8 + len((transport.Stats{}).Named()) + 2
	alpha := 0
	for _, r := range parsed {
		if r.Key == "alpha" {
			alpha++
		}
	}
	if alpha != wantAlpha {
		t.Errorf("alpha rows = %d want %d", alpha, wantAlpha)
	}
}

func TestParseLongCSVRejectsGarbage(t *testing.T) {
	for _, doc := range []string{"", "a,b,c\n", "node,cycle,metric,value\nx,NaNcycle,m,1\n", "node,cycle,metric,value\nshort,row\n"} {
		if _, _, err := ParseLongCSV(doc); err == nil {
			t.Errorf("accepted %q", doc)
		}
	}
}

func TestDumperCSV(t *testing.T) {
	c := fixedCollector()
	var buf bytes.Buffer
	d := NewDumper(c, &buf)
	if err := d.Dump(); err != nil {
		t.Fatal(err)
	}
	if err := d.Dump(); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	if strings.Count(doc, "node,cycle,metric,value\n") != 1 {
		t.Errorf("header not written exactly once:\n%s", doc)
	}
	if _, rows, err := ParseLongCSV(doc); err != nil {
		t.Fatal(err)
	} else if len(rows) == 0 {
		t.Error("no rows dumped")
	}
}

// A restarted daemon appends to its previous dump file; the header must
// not be repeated mid-file, and the whole multi-run document must still
// parse.
func TestFileDumperSurvivesRestart(t *testing.T) {
	c := fixedCollector()
	path := t.TempDir() + "/dump.csv"
	for run := 0; run < 2; run++ {
		d, err := NewFileDumper(c, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Dump(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	if got := strings.Count(doc, "node,cycle,metric,value\n"); got != 1 {
		t.Errorf("header appears %d times after a restart, want 1:\n%s", got, doc)
	}
	if _, rows, err := ParseLongCSV(doc); err != nil {
		t.Fatalf("restarted dump file does not parse: %v", err)
	} else if len(rows) == 0 {
		t.Error("no rows")
	}

	// A JSONL path from an old config fails before creating the file.
	for _, jsonl := range []string{"dump.jsonl", "DUMP.NDJSON"} {
		p := t.TempDir() + "/" + jsonl
		if _, err := NewFileDumper(c, p); err == nil {
			t.Errorf("JSONL path %s accepted", jsonl)
		}
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("JSONL path %s created: %v", jsonl, err)
		}
	}
	if _, err := NewFileDumper(c, t.TempDir()+"/missing/dir.csv"); err == nil {
		t.Error("unwritable path accepted")
	}
}

// Files written before the empty-file check existed may carry repeated
// headers; the parser tolerates them at append boundaries.
func TestParseLongCSVToleratesRepeatedHeader(t *testing.T) {
	doc := "node,cycle,metric,value\na,1,m,1.000000\nnode,cycle,metric,value\nb,2,m,2.000000\n"
	_, rows, err := ParseLongCSV(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1].Key != "b" {
		t.Errorf("rows = %+v", rows)
	}
}

// The dumper samples each node at most once per gossip cycle: rounds
// where the cycle counter has not advanced are suppressed, so
// (node,cycle,metric) stays unique like the simulator's one observation
// per cycle, and a finished cluster left registered on a shared
// collector stops generating rows instead of appending frozen lines
// every interval forever.
func TestDumperSamplesAtCycleGranularity(t *testing.T) {
	src := &fakeSource{addr: "a", cycles: 1}
	c := New()
	c.now = func() time.Time { return time.UnixMilli(1) }
	c.Register("a", src)

	var buf bytes.Buffer
	d := NewDumper(c, &buf)
	if err := d.Dump(); err != nil {
		t.Fatal(err)
	}
	afterFirst := buf.Len()
	src.served = 7 // within-cycle movement only
	if err := d.Dump(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != afterFirst {
		t.Errorf("same-cycle re-observation appended rows:\n%s", buf.String())
	}
	src.cycles = 2 // the next cycle ran
	if err := d.Dump(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == afterFirst {
		t.Error("advanced cycle appended nothing")
	}
	_, rows, err := ParseLongCSV(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	// Two emitted rounds' worth of rows, not three, and unique
	// (key,cycle,metric) tuples throughout.
	if want := 2 * len(NodeSnapshot{}.Rows()); len(rows) != want {
		t.Errorf("rows = %d want %d", len(rows), want)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		k := fmt.Sprintf("%s|%d|%s", r.Key, r.Cycle, r.Metric)
		if seen[k] {
			t.Errorf("duplicate tuple %s", k)
		}
		seen[k] = true
	}
}

// A write failure must not mark the round as dumped: the retry (or the
// final Stop round) has to emit the lost observations.
func TestDumperRetriesAfterWriteFailure(t *testing.T) {
	c := fixedCollector()
	w := &flakyWriter{fails: 1}
	d := NewDumper(c, w)
	if err := d.Dump(); err == nil {
		t.Fatal("failed write not reported")
	}
	if err := d.Dump(); err != nil {
		t.Fatal(err)
	}
	_, rows, err := ParseLongCSV(w.buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Error("observations lost after a transient write failure")
	}
}

// flakyWriter fails its first Write calls, then behaves.
type flakyWriter struct {
	fails int
	buf   bytes.Buffer
}

func (w *flakyWriter) Write(p []byte) (int, error) {
	if w.fails > 0 {
		w.fails--
		return 0, errors.New("disk full")
	}
	return w.buf.Write(p)
}

// Start must tolerate a non-positive interval (clamp, not ticker panic).
func TestDumperStartClampsInterval(t *testing.T) {
	d := NewDumper(fixedCollector(), &syncBuffer{})
	d.Start(0)
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestDumperStartStop(t *testing.T) {
	c := fixedCollector()
	var buf syncBuffer
	d := NewDumper(c, &buf)
	d.Start(time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	_, rows, err := ParseLongCSV(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	// At least the final round is always present; the ticker normally
	// lands several more.
	if len(rows) < 2 {
		t.Errorf("only %d rows after Start/Stop", len(rows))
	}
}

// TestDumperRestart runs Start, Stop, then Start, Start, Stop: Stop after
// a restart must return rather than wait on a loop it never stops, and a
// second Start on a running dumper must not leak the first loop.
func TestDumperRestart(t *testing.T) {
	before := goruntime.NumGoroutine()
	d := NewDumper(fixedCollector(), &syncBuffer{})
	done := make(chan error, 1)
	go func() {
		d.Start(time.Millisecond)
		err := d.Stop()
		if err == nil {
			d.Start(time.Millisecond)
			d.Start(time.Millisecond)
			err = d.Stop()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Start/Stop/Start/Stop did not return within 5s")
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := goruntime.NumGoroutine(); got > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines leaked: %d -> %d\n%s", before, got, buf[:goruntime.Stack(buf, true)])
	}
}

// syncBuffer is a bytes.Buffer safe for the dumper goroutine + test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
