package core

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"slices"
	"unsafe"
)

// Descriptor is a single entry of a partial view: the address of a peer
// together with a hop count that records how many exchanges ago the
// information originated at that peer. A freshly injected descriptor has
// hop count zero; every network hop increments it by one.
type Descriptor[A comparable] struct {
	Addr A
	Hop  int32
}

// String renders the descriptor as "addr@hop".
func (d Descriptor[A]) String() string {
	return fmt.Sprintf("%v@%d", d.Addr, d.Hop)
}

// IncreaseHop increments the hop count of every descriptor in buf in
// place, implementing the paper's increaseHopCount step that runs on every
// received view.
func IncreaseHop[A comparable](buf []Descriptor[A]) {
	for i := range buf {
		buf[i].Hop++
	}
}

// SortByHop stably sorts buf by increasing hop count. Descriptors with
// equal hop counts keep their relative order, matching the paper's remark
// that the first and last k elements are not always uniquely defined by
// the ordering.
func SortByHop[A comparable](buf []Descriptor[A]) {
	slices.SortStableFunc(buf, func(a, b Descriptor[A]) int { return cmp.Compare(a.Hop, b.Hop) })
}

// MergeInto writes the union of the two hop-ordered descriptor lists into
// dst (which is truncated first and must not alias either input), ordered
// again by increasing hop count, and returns the possibly grown dst. When
// both lists contain a descriptor for the same address only the one with
// the lowest hop count survives; on a tie the descriptor from the first
// list wins (the merge is stable). The inputs must each be sorted by hop
// count. A duplicate address within one input is tolerated: its first,
// lowest-hop occurrence wins, so merging a sorted list with nil
// deduplicates it. Callers holding a reusable scratch slice merge without
// allocating once the scratch has reached steady-state capacity.
func MergeInto[A comparable](dst, first, second []Descriptor[A]) []Descriptor[A] {
	return mergeKeep(dst, first, second, nil, len(first)+len(second))
}

// mergeSeed keys the address hash of the merge's dedup table for every
// address type but int32.
var mergeSeed = maphash.MakeSeed()

// fibMul is 2^64 divided by the golden ratio. Bits 32 and up of an
// int32 address's product with fibMul depend on every bit of the
// address, and the dedup table indexes by them, so addresses sharing
// their low bits still land apart.
const fibMul = 0x9E3779B97F4A7C15

// mergeKeep is the one merge: MergeInto's result with every descriptor
// for *drop left out (drop may be nil), cut to its first limit entries.
// The output is produced in hop order, so it stops as soon as limit
// descriptors are kept: under head view selection the stale rest of the
// inputs is never visited, let alone hashed.
func mergeKeep[A comparable](dst, first, second []Descriptor[A], drop *A, limit int) []Descriptor[A] {
	n := len(first) + len(second)
	keep := min(n, limit)
	// Grow dst to the most it can keep up front: reusable scratches then
	// reach their steady-state capacity on the first merge instead of
	// creeping towards it over many cycles, each growth step paying an
	// allocation.
	out := slices.Grow(dst[:0], keep)
	// seen is an open-addressing set over out: a slot holds index+1 of the
	// output entry whose address hashed there, -1 for *drop, 0 when empty.
	// Sized to a power of two of at least twice the entries it can hold it
	// stays at most half full, and up to c = 63 it fits the stack array,
	// so merging is linear and allocation-free. The hash only answers
	// "already kept?"; output order is the hop order alone.
	if drop != nil {
		keep++
	}
	var stack [256]int32
	size := 1
	for size < 2*keep {
		size <<= 1
	}
	seen := stack[:]
	if size > len(stack) {
		seen = make([]int32, size)
	}
	mask := uint64(size - 1)
	// The simulator's int32 IDs take a multiplicative hash; addresses of
	// any other type, strings off the wire among them, keep the seeded
	// maphash. A descriptor is hashed only once the merge reaches it. The
	// size test is a constant in each compiled form of this function, so
	// the string form carries no int32 branch at all.
	slot := func(a A) uint64 {
		if unsafe.Sizeof(a) == 4 {
			if id, ok := any(a).(int32); ok {
				return uint64(uint32(id)) * fibMul >> 32 & mask
			}
		}
		return maphash.Comparable(mergeSeed, a) & mask
	}
	if drop != nil {
		seen[slot(*drop)] = -1
	}
	i, j := 0, 0
	for len(out) < limit && (i < len(first) || j < len(second)) {
		var d Descriptor[A]
		switch {
		case j >= len(second):
			d = first[i]
			i++
		case i >= len(first):
			d = second[j]
			j++
		case second[j].Hop < first[i].Hop:
			d = second[j]
			j++
		default: // ties favour the first list, keeping the merge stable
			d = first[i]
			i++
		}
		// An earlier occurrence necessarily has a lower or equal hop count
		// because the output is produced in hop order, so it wins.
		for h := slot(d.Addr); ; h = (h + 1) & mask {
			k := seen[h]
			if k == 0 {
				seen[h] = int32(len(out) + 1)
				out = append(out, d)
				break
			}
			if k < 0 {
				if *drop == d.Addr {
					break
				}
				continue
			}
			if out[k-1].Addr == d.Addr {
				break
			}
		}
	}
	return out
}

// containsAddr reports whether buf already holds a descriptor for addr.
func containsAddr[A comparable](buf []Descriptor[A], addr A) bool {
	for i := range buf {
		if buf[i].Addr == addr {
			return true
		}
	}
	return false
}

// dropAddr returns buf with any descriptor for addr removed, preserving
// order. It mutates buf's backing array.
func dropAddr[A comparable](buf []Descriptor[A], addr A) []Descriptor[A] {
	for i := range buf {
		if buf[i].Addr == addr {
			return append(buf[:i], buf[i+1:]...)
		}
	}
	return buf
}
