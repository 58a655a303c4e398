package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func descs(pairs ...int32) []Descriptor[int32] {
	if len(pairs)%2 != 0 {
		panic("descs: want addr,hop pairs")
	}
	out := make([]Descriptor[int32], 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, Descriptor[int32]{Addr: pairs[i], Hop: pairs[i+1]})
	}
	return out
}

func TestIncreaseHop(t *testing.T) {
	buf := descs(1, 0, 2, 5, 3, 7)
	IncreaseHop(buf)
	want := descs(1, 1, 2, 6, 3, 8)
	if len(buf) != len(want) {
		t.Fatalf("length changed: got %d want %d", len(buf), len(want))
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Errorf("entry %d: got %v want %v", i, buf[i], want[i])
		}
	}
}

func TestIncreaseHopEmpty(t *testing.T) {
	IncreaseHop[int32](nil) // must not panic
}

func TestSortByHopStable(t *testing.T) {
	buf := descs(5, 2, 1, 0, 4, 2, 2, 1, 3, 2)
	SortByHop(buf)
	want := descs(1, 0, 2, 1, 5, 2, 4, 2, 3, 2)
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("entry %d: got %v want %v (full: %v)", i, buf[i], want[i], buf)
		}
	}
}

func TestMergeDisjoint(t *testing.T) {
	a := descs(1, 0, 2, 3)
	b := descs(3, 1, 4, 5)
	got := MergeInto(nil, a, b)
	want := descs(1, 0, 3, 1, 2, 3, 4, 5)
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestMergeLowestHopWins(t *testing.T) {
	a := descs(7, 4)
	b := descs(7, 2)
	got := MergeInto(nil, a, b)
	if len(got) != 1 || got[0] != (Descriptor[int32]{Addr: 7, Hop: 2}) {
		t.Fatalf("got %v, want single 7@2", got)
	}
	// And symmetrically when the first list holds the fresher copy.
	got = MergeInto(nil, b, a)
	if len(got) != 1 || got[0] != (Descriptor[int32]{Addr: 7, Hop: 2}) {
		t.Fatalf("got %v, want single 7@2", got)
	}
}

func TestMergeTieFavorsFirst(t *testing.T) {
	// Same address, same hop: indistinguishable. Different addresses with
	// equal hops: the first list's entries must come first (stability).
	a := descs(1, 3)
	b := descs(2, 3)
	got := MergeInto(nil, a, b)
	want := descs(1, 3, 2, 3)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestMergeEmpty(t *testing.T) {
	a := descs(1, 1)
	if got := MergeInto(nil, a, nil); len(got) != 1 || got[0] != a[0] {
		t.Fatalf("merge with nil second: got %v", got)
	}
	if got := MergeInto(nil, nil, a); len(got) != 1 || got[0] != a[0] {
		t.Fatalf("merge with nil first: got %v", got)
	}
	if got := MergeInto[int32](nil, nil, nil); len(got) != 0 {
		t.Fatalf("merge of nils: got %v", got)
	}
}

func TestMergeDoesNotAliasInputs(t *testing.T) {
	a := descs(1, 0, 2, 1)
	b := descs(3, 2)
	got := MergeInto(nil, a, b)
	got[0].Hop = 99
	if a[0].Hop != 0 {
		t.Fatal("merge result aliases its first input")
	}
}

// randomSortedView builds a hop-sorted, duplicate-free descriptor list
// from fuzz input.
func randomSortedView(addrs []uint16, hops []uint8) []Descriptor[int32] {
	out := make([]Descriptor[int32], 0, len(addrs))
	for i, a := range addrs {
		var hop int32
		if i < len(hops) {
			hop = int32(hops[i] % 16)
		}
		d := Descriptor[int32]{Addr: int32(a % 64), Hop: hop}
		if !containsAddr(out, d.Addr) {
			out = append(out, d)
		}
	}
	SortByHop(out)
	return out
}

// stringAddrs maps int32 addresses to distinct "host:port" strings that
// share a long prefix, as live addresses do.
func stringAddrs(buf []Descriptor[int32]) []Descriptor[string] {
	out := make([]Descriptor[string], len(buf))
	for i, d := range buf {
		out[i] = Descriptor[string]{Addr: fmt.Sprintf("127.0.0.1:4%04d", d.Addr), Hop: d.Hop}
	}
	return out
}

// mergeReference is the linear-scan merge MergeInto's hashed dedup
// replaced, kept as the oracle it must match entry for entry.
func mergeReference[A comparable](first, second []Descriptor[A]) []Descriptor[A] {
	var out []Descriptor[A]
	i, j := 0, 0
	for i < len(first) || j < len(second) {
		var d Descriptor[A]
		if j >= len(second) || (i < len(first) && first[i].Hop <= second[j].Hop) {
			d = first[i]
			i++
		} else {
			d = second[j]
			j++
		}
		if !containsAddr(out, d.Addr) {
			out = append(out, d)
		}
	}
	return out
}

// mergeIsUnion reports whether m = MergeInto(nil, a, b) is hop-sorted,
// holds every source address exactly once, and each with its minimum
// source hop.
func mergeIsUnion[A comparable](a, b, m []Descriptor[A]) bool {
	for i := 1; i < len(m); i++ {
		if m[i].Hop < m[i-1].Hop {
			return false
		}
	}
	minHop := map[A]int32{}
	for _, src := range [][]Descriptor[A]{a, b} {
		for _, s := range src {
			if h, ok := minHop[s.Addr]; !ok || s.Hop < h {
				minHop[s.Addr] = s.Hop
			}
		}
	}
	if len(m) != len(minHop) {
		return false
	}
	for _, d := range m {
		if h, ok := minHop[d.Addr]; !ok || d.Hop != h {
			return false
		}
		delete(minHop, d.Addr) // a second occurrence fails the lookup
	}
	return true
}

func TestMergePropertyUnion(t *testing.T) {
	f := func(addrsA, addrsB []uint16, hopsA, hopsB []uint8) bool {
		a := randomSortedView(addrsA, hopsA)
		b := randomSortedView(addrsB, hopsB)
		sa, sb := stringAddrs(a), stringAddrs(b)
		return mergeIsUnion(a, b, MergeInto(nil, a, b)) && mergeIsUnion(sa, sb, MergeInto(nil, sa, sb))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// fuzzView decodes (address, hop) byte pairs into a hop-sorted list of at
// most 300 entries over 48 addresses, so duplicates, also within one
// list, are common and long inputs take MergeInto's heap table.
func fuzzView(data []byte) []Descriptor[int32] {
	out := make([]Descriptor[int32], 0, len(data)/2)
	for i := 0; i+1 < len(data) && len(out) < 300; i += 2 {
		out = append(out, Descriptor[int32]{Addr: int32(data[i] % 48), Hop: int32(data[i+1] % 8)})
	}
	SortByHop(out)
	return out
}

// wideAddrs moves int32 addresses below 64 into the top six bits over
// salt's low 26, so the addresses span the whole int32 range, negative
// ones included, and all share their low bits.
func wideAddrs(buf []Descriptor[int32], salt int32) []Descriptor[int32] {
	out := make([]Descriptor[int32], len(buf))
	for i, d := range buf {
		out[i] = Descriptor[int32]{Addr: int32(uint32(d.Addr)<<26) ^ salt, Hop: d.Hop}
	}
	return out
}

// keepReference is what the bounded, self-dropping merge must return:
// the full reference merge without drop, cut to its first limit entries.
func keepReference[A comparable](first, second []Descriptor[A], drop A, limit int) []Descriptor[A] {
	out := dropAddr(mergeReference(first, second), drop)
	return out[:min(len(out), limit)]
}

// checkMerge compares MergeInto, into a dirty dst that must be truncated
// rather than appended to, and mergeKeep bounded at limit and dropping
// self against the reference merge.
func checkMerge[A comparable](t *testing.T, first, second []Descriptor[A], self A, limit int) {
	t.Helper()
	if got, want := MergeInto(slices.Clone(second), first, second), mergeReference(first, second); !slices.Equal(got, want) {
		t.Fatalf("MergeInto(%v, %v)\n got %v\nwant %v", first, second, got, want)
	}
	got := mergeKeep(slices.Clone(first), first, second, &self, limit)
	if want := keepReference(first, second, self, limit); !slices.Equal(got, want) {
		t.Fatalf("mergeKeep(%v, %v, drop %v, limit %d)\n got %v\nwant %v", first, second, self, limit, got, want)
	}
}

func FuzzMergeInto(f *testing.F) {
	f.Add([]byte{}, []byte{}, int32(0), uint8(0), uint8(0))
	f.Add([]byte{1, 0, 2, 1, 1, 3}, []byte{2, 0, 3, 3}, int32(-1), uint8(1), uint8(2))
	for _, n := range []int{64, 65, 300} { // 2(64+64) fills the stack table exactly
		a, b := make([]byte, 2*n), make([]byte, 2*n)
		for i := range a {
			a[i], b[i] = byte(i*7), byte(i*13)
		}
		f.Add(a, b, int32(math.MinInt32), uint8(7), uint8(30))
	}
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, salt int32, self, limit uint8) {
		a, b := fuzzView(rawA), fuzzView(rawB)
		me := descs(int32(self%48), 0)
		checkMerge(t, a, b, me[0].Addr, int(limit))
		checkMerge(t, wideAddrs(a, salt), wideAddrs(b, salt), wideAddrs(me, salt)[0].Addr, int(limit))
		checkMerge(t, stringAddrs(a), stringAddrs(b), stringAddrs(me)[0].Addr, int(limit))
		if got, want := MergeInto(nil, a, b), mergeReference(a, b); !slices.Equal(got, want) {
			t.Fatalf("MergeInto(nil, %v, %v)\n got %v\nwant %v", a, b, got, want)
		}
	})
}

// mergeAllocs reports the allocations of a warm MergeInto of first and
// second, as after a few cycles with view size c: the table for 2c+1
// descriptors must fit the stack array up to c = 63.
func mergeAllocs[A comparable](first, second []Descriptor[A]) float64 {
	dst := MergeInto(nil, first, second) // warm: grow dst once
	return testing.AllocsPerRun(100, func() { dst = MergeInto(dst, first, second) })
}

func TestMergeIntoAllocs(t *testing.T) {
	for _, c := range []int{30, 60, 63} {
		// Two views sharing half their addresses, as after a few cycles.
		var a, b []Descriptor[int32]
		for i := 0; i <= c; i++ {
			a = append(a, Descriptor[int32]{Addr: int32(i), Hop: int32(i)})
		}
		for i := 0; i < c; i++ {
			b = append(b, Descriptor[int32]{Addr: int32(c/2 + i), Hop: int32(i)})
		}
		if got := mergeAllocs(a, b); got != 0 {
			t.Errorf("c=%d: MergeInto of %d+%d int32 descriptors allocates %v times, want 0", c, len(a), len(b), got)
		}
		if got := mergeAllocs(stringAddrs(a), stringAddrs(b)); got != 0 {
			t.Errorf("c=%d: MergeInto of %d+%d string descriptors allocates %v times, want 0", c, len(a), len(b), got)
		}
	}
}

func TestMergeSetCommutativity(t *testing.T) {
	// As address sets (with minimal hops), merge is commutative even
	// though the order of equal-hop entries is not.
	f := func(addrsA, addrsB []uint16, hopsA, hopsB []uint8) bool {
		a := randomSortedView(addrsA, hopsA)
		b := randomSortedView(addrsB, hopsB)
		ab := MergeInto(nil, a, b)
		ba := MergeInto(nil, b, a)
		if len(ab) != len(ba) {
			return false
		}
		m := map[int32]int32{}
		for _, d := range ab {
			m[d.Addr] = d.Hop
		}
		for _, d := range ba {
			if h, ok := m[d.Addr]; !ok || h != d.Hop {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeIdempotent(t *testing.T) {
	f := func(addrs []uint16, hops []uint8) bool {
		a := randomSortedView(addrs, hops)
		m := MergeInto(nil, a, a)
		if len(m) != len(a) {
			return false
		}
		for i := range a {
			if m[i] != a[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDropAddr(t *testing.T) {
	buf := descs(1, 0, 2, 1, 3, 2)
	buf = dropAddr(buf, 2)
	want := descs(1, 0, 3, 2)
	if len(buf) != len(want) {
		t.Fatalf("got %v want %v", buf, want)
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("got %v want %v", buf, want)
		}
	}
	if got := dropAddr(buf, 99); len(got) != 2 {
		t.Fatalf("dropping absent addr changed slice: %v", got)
	}
}

func TestSampleOrderedProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	f := func(addrs []uint16, hops []uint8, kRaw uint8) bool {
		buf := randomSortedView(addrs, hops)
		if len(buf) == 0 {
			return true
		}
		k := int(kRaw)%len(buf) + 1
		got := sampleOrderedInto(nil, make([]int, len(buf)), buf, k, rng)
		if len(got) != k {
			return false
		}
		// Subset of buf, order preserved (hop-sorted), no duplicates.
		for i := 1; i < len(got); i++ {
			if got[i].Hop < got[i-1].Hop {
				return false
			}
		}
		seen := map[int32]bool{}
		for _, d := range got {
			if seen[d.Addr] {
				return false
			}
			seen[d.Addr] = true
			if !containsAddr(buf, d.Addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleOrderedUniform(t *testing.T) {
	// Drawing 1 element from 4 must be close to uniform.
	rng := rand.New(rand.NewPCG(3, 4))
	buf := descs(0, 0, 1, 1, 2, 2, 3, 3)
	counts := make([]int, 4)
	const trials = 40000
	for i := 0; i < trials; i++ {
		got := sampleOrderedInto(nil, make([]int, len(buf)), buf, 1, rng)
		counts[got[0].Addr]++
	}
	for a, c := range counts {
		if c < trials/4-600 || c > trials/4+600 {
			t.Errorf("address %d drawn %d times, want ~%d", a, c, trials/4)
		}
	}
}
