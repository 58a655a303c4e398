package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewViewPanicsOnBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewView(%d) did not panic", c)
				}
			}()
			NewView[int32](c)
		}()
	}
}

func TestViewSetAllSortsAndDedups(t *testing.T) {
	v := NewView[int32](4)
	v.SetAll(descs(3, 5, 1, 2, 3, 1, 2, 0))
	if v.Len() != 3 {
		t.Fatalf("len = %d want 3 (%v)", v.Len(), v)
	}
	want := descs(2, 0, 3, 1, 1, 2)
	for i := range want {
		if v.At(i) != want[i] {
			t.Errorf("At(%d) = %v want %v", i, v.At(i), want[i])
		}
	}
}

func TestViewSetAllTruncatesToFreshest(t *testing.T) {
	v := NewView[int32](2)
	v.SetAll(descs(1, 5, 2, 1, 3, 3))
	if v.Len() != 2 {
		t.Fatalf("len = %d want 2", v.Len())
	}
	if v.At(0) != (Descriptor[int32]{Addr: 2, Hop: 1}) || v.At(1) != (Descriptor[int32]{Addr: 3, Hop: 3}) {
		t.Fatalf("unexpected contents %v", v)
	}
}

func TestViewSetAllCopiesInput(t *testing.T) {
	v := NewView[int32](4)
	in := descs(1, 0)
	v.SetAll(in)
	in[0].Hop = 42
	if v.At(0).Hop != 0 {
		t.Fatal("SetAll aliased its input")
	}
}

// hopOf returns the hop count v records for addr and whether addr is
// present.
func hopOf[A comparable](v *View[A], addr A) (int32, bool) {
	for _, d := range v.items {
		if d.Addr == addr {
			return d.Hop, true
		}
	}
	return 0, false
}

func TestViewAccessors(t *testing.T) {
	v := NewView[int32](8)
	v.SetAll(descs(10, 1, 20, 2, 30, 3))
	if v.capacity != 8 {
		t.Errorf("capacity = %d want 8", v.capacity)
	}
	if !v.Contains(20) || v.Contains(99) {
		t.Error("Contains wrong")
	}
	if h, ok := hopOf(v, 30); !ok || h != 3 {
		t.Errorf("hopOf(30) = %d,%v want 3,true", h, ok)
	}
	if _, ok := hopOf(v, 99); ok {
		t.Error("hopOf(99) reported present")
	}
	addrs := v.Addresses()
	if len(addrs) != 3 || addrs[0] != 10 || addrs[2] != 30 {
		t.Errorf("Addresses = %v", addrs)
	}
	ds := v.Descriptors()
	ds[0].Hop = 99
	if v.At(0).Hop != 1 {
		t.Error("Descriptors did not copy")
	}
}

func TestViewRemove(t *testing.T) {
	v := NewView[int32](8)
	v.SetAll(descs(1, 1, 2, 2))
	if !v.Remove(1) {
		t.Fatal("Remove(1) = false")
	}
	if v.Remove(1) {
		t.Fatal("second Remove(1) = true")
	}
	if v.Len() != 1 || v.At(0).Addr != 2 {
		t.Fatalf("unexpected view %v", v)
	}
}

func TestViewString(t *testing.T) {
	v := NewView[int32](4)
	v.SetAll(descs(1, 0, 2, 3))
	if got, want := v.String(), "[1@0 2@3]"; got != want {
		t.Errorf("String = %q want %q", got, want)
	}
}

func TestSelectIntoHeadTail(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	buffer := descs(1, 0, 2, 1, 3, 2, 4, 3, 5, 4)

	v := NewView[int32](3)
	v.selectInto(ViewHead, append([]Descriptor[int32](nil), buffer...), new(Scratch[int32]), rng)
	if v.Len() != 3 || v.At(0).Addr != 1 || v.At(2).Addr != 3 {
		t.Errorf("head selection got %v", v)
	}

	v = NewView[int32](3)
	v.selectInto(ViewTail, append([]Descriptor[int32](nil), buffer...), new(Scratch[int32]), rng)
	if v.Len() != 3 || v.At(0).Addr != 3 || v.At(2).Addr != 5 {
		t.Errorf("tail selection got %v", v)
	}

	v = NewView[int32](3)
	v.selectInto(ViewRand, append([]Descriptor[int32](nil), buffer...), new(Scratch[int32]), rng)
	if v.Len() != 3 {
		t.Errorf("rand selection kept %d items", v.Len())
	}
	for i := 1; i < v.Len(); i++ {
		if v.At(i).Hop < v.At(i-1).Hop {
			t.Errorf("rand selection broke hop order: %v", v)
		}
	}
}

func TestSelectIntoNoTruncationNeeded(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, pol := range []ViewSelection{ViewRand, ViewHead, ViewTail} {
		v := NewView[int32](5)
		v.selectInto(pol, descs(1, 0, 2, 1), new(Scratch[int32]), rng)
		if v.Len() != 2 || v.At(0).Addr != 1 || v.At(1).Addr != 2 {
			t.Errorf("%v: got %v", pol, v)
		}
	}
}

func TestSelectIntoInvalidPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid policy did not panic")
		}
	}()
	v := NewView[int32](1)
	v.selectInto(ViewSelection(0), descs(1, 0, 2, 1), new(Scratch[int32]), rand.New(rand.NewPCG(1, 1)))
}

func TestViewInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	f := func(addrs []uint16, hops []uint8, capRaw uint8, polRaw uint8) bool {
		capacity := int(capRaw)%8 + 1
		pol := []ViewSelection{ViewRand, ViewHead, ViewTail}[int(polRaw)%3]
		buffer := randomSortedView(addrs, hops)
		v := NewView[int32](capacity)
		v.selectInto(pol, buffer, new(Scratch[int32]), rng)
		if v.Len() > capacity {
			return false
		}
		seen := map[int32]bool{}
		for i := 0; i < v.Len(); i++ {
			d := v.At(i)
			if seen[d.Addr] {
				return false
			}
			seen[d.Addr] = true
			if i > 0 && d.Hop < v.At(i-1).Hop {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
