package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestFaultSetRuleSemantics(t *testing.T) {
	f := NewFaultSet(7)
	f.SetRules([]FaultRule{
		{From: "a", To: "b", Cut: true},
		{From: "*", To: "c", Latency: 5 * time.Millisecond},
		{From: "a", To: "*", Latency: 2 * time.Millisecond},
	})
	if got := f.ActiveRules(); got != 3 {
		t.Fatalf("ActiveRules = %d, want 3", got)
	}
	// A nil set injects nothing: the default of every runtime node.
	var none *FaultSet
	if err := none.Apply(context.Background(), "a", "b"); err != nil {
		t.Fatalf("nil set: %v", err)
	}

	if _, err := f.decide("a", "b"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cut a->b: err = %v, want ErrUnreachable", err)
	}
	// Direction matters: the reverse edge is untouched (b->a matches only
	// no rule).
	if d, err := f.decide("b", "a"); err != nil || d != 0 {
		t.Fatalf("b->a: d=%v err=%v, want clean", d, err)
	}
	// Two latency rules match a->c; the larger applies.
	if d, err := f.decide("a", "c"); err != nil || d != 5*time.Millisecond {
		t.Fatalf("a->c: d=%v err=%v, want 5ms", d, err)
	}
	if d, err := f.decide("a", "z"); err != nil || d != 2*time.Millisecond {
		t.Fatalf("a->z: d=%v err=%v, want 2ms", d, err)
	}

	f.SetRules(nil)
	if got := f.ActiveRules(); got != 0 {
		t.Fatalf("ActiveRules after heal = %d, want 0", got)
	}
	if _, err := f.decide("a", "b"); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestFaultSetLossIsSeededAndBounded(t *testing.T) {
	f := NewFaultSet(42)
	f.SetRules([]FaultRule{{From: "*", To: "*", Loss: 0.5}})
	dropped := 0
	for i := 0; i < 1000; i++ {
		if _, err := f.decide("x", "y"); errors.Is(err, ErrDropped) {
			dropped++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if dropped < 400 || dropped > 600 {
		t.Fatalf("dropped %d/1000 at loss 0.5", dropped)
	}
	// Same seed, same decisions: the replay property chaos plans rely on.
	g := NewFaultSet(42)
	g.SetRules([]FaultRule{{From: "*", To: "*", Loss: 0.5}})
	redropped := 0
	for i := 0; i < 1000; i++ {
		if _, err := g.decide("x", "y"); errors.Is(err, ErrDropped) {
			redropped++
		}
	}
	if redropped != dropped {
		t.Fatalf("replay dropped %d, first run dropped %d", redropped, dropped)
	}
}
