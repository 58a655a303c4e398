package main

import (
	"reflect"
	"testing"

	"peersampling/internal/transport"
)

// A hand-built tree:
//
//	root      0 ........................ 100
//	  a          10 ....... 40
//	    a1          15 . 25
//	  b                  30 ........ 70        (overlaps a by 10)
//	  c                                   90 ...... 120   (sticks out by 20)
//	other root 200 .. 230
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},
		{start: 10, end: 40, parent: 0},
		{start: 15, end: 25, parent: 1},
		{start: 30, end: 70, parent: 0},
		{start: 90, end: 120, parent: 0},
		{start: 200, end: 230, parent: -1},
	}
	// root: children cover [10,70] and [90,100] = 70, so 30 of its own.
	want := []int64{30, 20, 10, 40, 30, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestAggregateCountsWholeTracesInWindow(t *testing.T) {
	tr := newTracer()
	b := tr.newBuf()
	b.spans = []span{
		{start: 5, end: 50, parent: -1, name: spTick}, // began before the window
		{start: 10, end: 40, parent: 0, name: spExchange},
		{start: 100, end: 200, parent: -1, name: spTick},
		{start: 110, end: 190, parent: 2, name: spExchange},
		{start: 120, end: 150, parent: 3, name: spHandler},
		{start: 300, end: 0, parent: -1, name: spTick}, // never ended
	}
	agg := tr.aggregate(100, 1000)
	if a := agg[spTick]; a.count != 1 || a.dur != 100 || a.self != 20 {
		t.Errorf("tick aggregate %+v, want one span of 100 with 20 self", a)
	}
	if a := agg[spExchange]; a.count != 1 || a.self != 50 {
		t.Errorf("exchange aggregate %+v, want one span with 50 self", a)
	}
	if got := ledgerResidualPct(agg[spTick], agg[spExchange], agg[spHandler]); got != 0 {
		t.Errorf("a properly nested trace leaves residual %v%%, want 0", got)
	}
	if got := len(tr.export(100, 1000, 10)); got != 3 {
		t.Errorf("export wrote %d spans, want the window's one whole trace of 3", got)
	}
}

// The runtime finds a transport's optional capabilities by type
// assertion; the tracing wrapper must not hide any of them, for any
// backend a daemon can be configured with.
func TestWrapperKeepsCapabilities(t *testing.T) {
	handler := func(transport.Request) (transport.Response, bool) { return transport.Response{}, false }
	for _, backend := range transport.Backends() {
		factory, err := transport.NewFactory(backend, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		bare, err := factory(handler)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := newTracer().wrap(factory)(handler)
		if err != nil {
			t.Fatal(err)
		}
		_, bareApp := bare.(transport.AppCarrier)
		_, bareStats := bare.(transport.StatsReporter)
		_, bareLimits := bare.(transport.LimitsUpdater)
		_, app := wrapped.(transport.AppCarrier)
		_, stats := wrapped.(transport.StatsReporter)
		_, limits := wrapped.(transport.LimitsUpdater)
		if !bareApp || !bareStats || !bareLimits {
			t.Errorf("%s: backend itself lacks a capability (app %v, stats %v, limits %v); the wrapper's variants need revisiting",
				backend, bareApp, bareStats, bareLimits)
		}
		if app != bareApp || stats != bareStats || limits != bareLimits {
			t.Errorf("%s: wrapper has app %v stats %v limits %v, backend has %v %v %v",
				backend, app, stats, limits, bareApp, bareStats, bareLimits)
		}
		bare.Close()
		wrapped.Close()
	}

	// The fabric carries app payloads but keeps no counters and takes no
	// limits; the wrapper must not invent them.
	wrapped, err := newTracer().wrap(transport.NewFabric().Factory("mem"))(handler)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapped.(transport.AppCarrier); !ok {
		t.Error("fabric: wrapper lost AppCarrier")
	}
	if _, ok := wrapped.(transport.StatsReporter); ok {
		t.Error("fabric: wrapper invented StatsReporter")
	}
	if _, ok := wrapped.(transport.LimitsUpdater); ok {
		t.Error("fabric: wrapper invented LimitsUpdater")
	}
}

// Tracing must not change what the program computes: the same seeded
// ticks on the fabric leave the same views with and without the wrapper.
func TestTracingIsNoOpOnResults(t *testing.T) {
	const seed, rounds = 42, 40
	run := func(tr *tracer) [][]int32 {
		f, err := buildFleet("mem", 16, 2, seed, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer f.close()
		for i := range rounds * len(f.nodes) {
			if !f.tickOp(i%2, i/2) {
				t.Fatalf("tick %d failed", i)
			}
		}
		if bad := f.checkExchanges(rounds * len(f.nodes)); len(bad) > 0 {
			t.Fatal(bad)
		}
		return f.views()
	}
	tr := newTracer()
	plain, traced := run(nil), run(tr)
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("views differ with tracing on:\nplain  %v\ntraced %v", plain, traced)
	}
	agg := tr.aggregate(0, 1<<62)
	if n := rounds * 16; agg[spTick].count != n || agg[spExchange].count != n || agg[spHandler].count != n {
		t.Errorf("recorded %d ticks, %d exchanges, %d handlers, want %d of each",
			agg[spTick].count, agg[spExchange].count, agg[spHandler].count, n)
	}
	if r := ledgerResidualPct(agg[spTick], agg[spExchange], agg[spHandler]); r > 2 {
		t.Errorf("ledger residual %v%%, want at most 2", r)
	}
}
