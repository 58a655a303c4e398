package core

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// View is a partial view: a list of at most c descriptors, one per peer
// address, ordered by increasing hop count. The zero value is not usable;
// construct views with NewView.
//
// Invariants maintained by every method:
//
//   - len(items) <= capacity,
//   - addresses are unique,
//   - items are sorted by non-decreasing hop count,
//   - the owner's own address never appears (enforced by Node, which is
//     the only writer in normal operation).
type View[A comparable] struct {
	items    []Descriptor[A]
	capacity int
}

// NewView returns an empty view that holds at most capacity descriptors.
// It panics if capacity is not positive: a view of size zero cannot name
// any peer and would make the sampling service vacuous.
func NewView[A comparable](capacity int) *View[A] {
	if capacity <= 0 {
		panic(fmt.Sprintf("core: view capacity must be positive, got %d", capacity))
	}
	return &View[A]{
		items:    make([]Descriptor[A], 0, capacity),
		capacity: capacity,
	}
}

// Len returns the current number of descriptors.
func (v *View[A]) Len() int { return len(v.items) }

// At returns the i-th descriptor in hop-count order (0 is the head, the
// freshest entry).
func (v *View[A]) At(i int) Descriptor[A] { return v.items[i] }

// Descriptors returns a copy of the view contents in hop-count order.
// Callers may freely mutate the returned slice.
func (v *View[A]) Descriptors() []Descriptor[A] {
	out := make([]Descriptor[A], len(v.items))
	copy(out, v.items)
	return out
}

// Addresses returns the peer addresses currently in the view, in hop-count
// order.
func (v *View[A]) Addresses() []A {
	out := make([]A, len(v.items))
	for i := range v.items {
		out[i] = v.items[i].Addr
	}
	return out
}

// Contains reports whether the view holds a descriptor for addr.
func (v *View[A]) Contains(addr A) bool { return containsAddr(v.items, addr) }

// Remove deletes the descriptor for addr if present and reports whether a
// deletion happened.
func (v *View[A]) Remove(addr A) bool {
	n := len(v.items)
	v.items = dropAddr(v.items, addr)
	return len(v.items) < n
}

// SetAll replaces the view contents with the given descriptors. The input
// is copied, deduplicated (lowest hop count wins) and sorted by hop count;
// at most capacity entries are kept, preferring the freshest ones. SetAll is
// intended for bootstrap: steady-state updates go through Node.
func (v *View[A]) SetAll(descriptors []Descriptor[A]) {
	buf := make([]Descriptor[A], len(descriptors))
	copy(buf, descriptors)
	SortByHop(buf)
	// Merging with nothing deduplicates: the first occurrence has the
	// lowest hop. The merge stops at the capacity freshest entries.
	v.items = mergeKeep(v.items, buf, nil, nil, v.capacity)
}

// Age increments the hop count of every descriptor in the view by one.
// Nodes call this once per cycle: Figure 1 of the paper increments hop
// counts only on message receipt, but a literal reading freezes the
// overlay under head view selection (resident descriptors would stay
// fresh forever), so — following the authors' reference framework in the
// TOCS 2007 follow-up, where every cycle ends with view.increaseAge() —
// resident descriptors age between exchanges as well.
func (v *View[A]) Age() {
	IncreaseHop(v.items)
}

// String renders the view as "[a@0 b@2 ...]".
func (v *View[A]) String() string {
	parts := make([]string, len(v.items))
	for i, d := range v.items {
		parts[i] = d.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// selectInto truncates buffer to at most capacity entries according to the
// view selection policy and copies the result into the view, whose own
// array never aliases buffer; random selection permutes indices in
// s.idx. The buffer must be hop-ordered and duplicate-free.
func (v *View[A]) selectInto(policy ViewSelection, buffer []Descriptor[A], s *Scratch[A], rng *rand.Rand) {
	if len(buffer) > v.capacity {
		switch policy {
		case ViewHead:
			buffer = buffer[:v.capacity]
		case ViewTail:
			buffer = buffer[len(buffer)-v.capacity:]
		case ViewRand:
			if cap(s.idx) < len(buffer) {
				s.idx = make([]int, len(buffer))
			}
			v.items = sampleOrderedInto(v.items[:0], s.idx[:len(buffer)], buffer, v.capacity, rng)
			return
		default:
			panic(fmt.Sprintf("core: invalid view selection policy %d", policy))
		}
	}
	v.items = append(v.items[:0], buffer...)
}

// sampleOrderedInto appends to dst k elements of buf chosen uniformly at
// random without replacement, preserving their original (hop) order. It
// runs a partial Fisher-Yates over idx (len(buf) entries), so buf is left
// untouched; neither dst nor idx may alias buf.
func sampleOrderedInto[A comparable](dst []Descriptor[A], idx []int, buf []Descriptor[A], k int, rng *rand.Rand) []Descriptor[A] {
	n := len(buf)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	chosen := idx[:k]
	// Restore hop order by sorting the selected indices.
	for i := 1; i < len(chosen); i++ {
		for j := i; j > 0 && chosen[j] < chosen[j-1]; j-- {
			chosen[j], chosen[j-1] = chosen[j-1], chosen[j]
		}
	}
	for _, ix := range chosen {
		dst = append(dst, buf[ix])
	}
	return dst
}
