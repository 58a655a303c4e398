package sim

import (
	"runtime"
	"sort"
	"sync"

	"peersampling/internal/core"
)

// This file implements the staged parallel cycle driver: the engine that
// takes simulated experiments from the sequential loop's ~10^4 nodes per
// affordable cycle to 10^6 and beyond.
//
// A staged cycle runs the same per-node protocol work as RunCycle but on
// a bulk-synchronous schedule with three barriers:
//
//  1. initiate — every live node (in parallel, partitioned into
//     contiguous ID shards) ages its view, selects a peer with its own
//     RNG and builds its request into its slot's reusable buffer;
//  2. serve — requests are grouped into per-peer inboxes and every peer
//     (in parallel, sharded the same way) handles its inbox in ascending
//     initiator-ID order, writing each response into the initiator's
//     slot;
//  3. absorb — every initiator (in parallel) merges the response it
//     received.
//
// Determinism falls out of ownership, not locks: a node's state and RNG
// stream (a PCG keyed by the network seed and the node's ID) are only
// ever touched by the worker owning its shard, and the one place where
// ordering is contended — several initiators reaching the same peer —
// is fixed by sorting each inbox by initiator ID. The shard partition
// therefore never influences results: RunCycleSharded replays
// bit-identically for a fixed seed at any worker count and any
// GOMAXPROCS, which the determinism property tests pin.
//
// The schedule is deliberately not the sequential loop's: RunCycle
// interleaves exchanges (a node may be served, then age and initiate,
// within one cycle), while the staged driver ages and initiates
// everybody against the cycle-start state. The staged engine is
// therefore a synchronous-rounds model, not the paper's asynchronous
// one, and its overlays differ in distribution, not just in trajectory:
// clustering is lower for every rand-view protocol, and (tail,head,*)
// fragments far more often than under RunCycle. The paper's artefacts
// (internal/scenario) use RunCycle.

// shardedEngine is the reusable cross-cycle state of RunCycleSharded.
// All slices are grown once and recycled, so a steady-state cycle's
// allocation cost is a constant handful of escaping stage closures,
// independent of population size.
type shardedEngine struct {
	slots []exchangeSlot
	// inbox holds slot indices grouped by peer: the slots targeting peer
	// p live at inbox[offsets[p]:offsets[p+1]], in ascending initiator
	// order (slots are filled by ascending slot index, and slots are
	// ordered by initiator ID).
	inbox   []int32
	offsets []int32
	cursor  []int32
	// merge holds one core.Scratch per worker, lent to each node just
	// before it merges in stage 2 or 3 on that worker; the stage barriers
	// order one worker's use of a Scratch before the next's.
	merge []core.Scratch[NodeID]
}

// exchangeSlot carries one initiator's exchange through the stages of a
// cycle. Its buffers persist across cycles: the request buffer is owned
// by the initiator's worker during stage 1 and read (and hop-aged) by
// the peer's worker during stage 2; the response buffer is written by
// the peer's worker during stage 2 and consumed by the initiator's
// worker during stage 3. The stage barriers make each handoff safe.
type exchangeSlot struct {
	initiator NodeID
	peer      NodeID
	ok        bool // peer selected and alive: the exchange proceeds
	hasResp   bool
	req       core.Request[NodeID]
	resp      core.Response[NodeID]
	reqBuf    []core.Descriptor[NodeID]
	respBuf   []core.Descriptor[NodeID]
}

// RunCycleSharded executes one staged protocol cycle across the given
// number of worker goroutines (0 or less selects GOMAXPROCS). Results
// are bit-identical for a fixed seed at every worker count; see the file
// comment for the schedule and why it differs from RunCycle's.
func (w *Network) RunCycleSharded(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if w.sharded == nil {
		w.sharded = &shardedEngine{}
	}
	eng := w.sharded

	// Initiators: every node live at the cycle start, ascending by ID so
	// slot order (and with it every inbox) is deterministic.
	w.scratch = w.appendLiveIDs(w.scratch[:0])
	live := w.scratch
	n := len(live)
	for len(eng.slots) < n {
		eng.slots = append(eng.slots, exchangeSlot{})
	}
	slots := eng.slots[:n]
	for len(eng.merge) < workers {
		eng.merge = append(eng.merge, core.Scratch[NodeID]{})
	}

	// Stage 1: age, select, build requests — node-local work only.
	parallelRanges(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			id := live[i]
			node := w.nodes[id]
			s := &slots[i]
			s.initiator = id
			s.ok = false
			s.hasResp = false
			node.AgeView()
			peer, err := node.SelectPeer()
			if err != nil {
				continue // empty view: nothing to gossip with this cycle
			}
			s.peer = peer
			s.req, s.reqBuf = node.MakeRequestInto(s.reqBuf)
			s.ok = w.alive[peer]
		}
	})

	// Group requests into per-peer inboxes with a counting sort — cheap,
	// sequential and deterministic.
	total := len(w.nodes)
	for len(eng.offsets) < total+1 {
		eng.offsets = append(eng.offsets, 0)
	}
	offsets := eng.offsets[:total+1]
	clear(offsets)
	entries := 0
	for i := range slots {
		if slots[i].ok {
			offsets[slots[i].peer+1]++
			entries++
		}
	}
	for p := 1; p <= total; p++ {
		offsets[p] += offsets[p-1]
	}
	for len(eng.cursor) < total {
		eng.cursor = append(eng.cursor, 0)
	}
	cursor := eng.cursor[:total]
	copy(cursor, offsets[:total])
	for len(eng.inbox) < entries {
		eng.inbox = append(eng.inbox, 0)
	}
	inbox := eng.inbox[:entries]
	for i := range slots {
		if slots[i].ok {
			p := slots[i].peer
			inbox[cursor[p]] = int32(i)
			cursor[p]++
		}
	}

	// Stage 2: serve inboxes. Workers split the peer ID space so that
	// each gets a contiguous peer range carrying roughly equal inbox
	// entries; a peer's whole inbox stays with one worker.
	parallelRanges(workers, workers, func(k, _, _ int) {
		pLo := peerCut(offsets, k, workers, entries)
		pHi := peerCut(offsets, k+1, workers, entries)
		for p := pLo; p < pHi; p++ {
			node := w.nodes[p]
			node.ShareScratch(&eng.merge[k])
			for j := offsets[p]; j < offsets[p+1]; j++ {
				s := &slots[inbox[j]]
				s.resp, s.respBuf, s.hasResp = node.HandleRequestInto(s.req, s.respBuf)
			}
		}
	})

	// Stage 3: absorb responses — initiator-local work only.
	parallelRanges(n, workers, func(k, lo, hi int) {
		for i := lo; i < hi; i++ {
			s := &slots[i]
			if s.ok && s.hasResp {
				node := w.nodes[s.initiator]
				node.ShareScratch(&eng.merge[k])
				node.HandleResponse(s.resp)
			}
		}
	})

	w.cycle++
}

// RunSharded executes n staged cycles with the given worker count.
func (w *Network) RunSharded(n, workers int) {
	for i := 0; i < n; i++ {
		w.RunCycleSharded(workers)
	}
}

// peerCut returns the k-th boundary (of workers+1) of the peer ID space:
// the first peer whose inbox starts at or beyond the k-th equal share of
// all inbox entries. Cuts are non-decreasing in k, so the ranges
// [cut(k), cut(k+1)) are disjoint and cover every peer.
func peerCut(offsets []int32, k, workers, entries int) int32 {
	if k >= workers {
		return int32(len(offsets) - 1)
	}
	target := int32(k * entries / workers)
	// Smallest p with offsets[p] >= target; offsets is non-decreasing.
	return int32(sort.Search(len(offsets)-1, func(p int) bool {
		return offsets[p] >= target
	}))
}

// parallelRanges partitions [0, n) into up to workers contiguous chunks
// and runs fn(k, lo, hi) on the k-th concurrently, returning when all are
// done. With one worker (or one item) it runs inline.
func parallelRanges(n, workers int, fn func(k, lo, hi int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for k, lo := 0, 0; lo < n; k, lo = k+1, lo+chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			fn(k, lo, hi)
		}(k, lo, hi)
	}
	wg.Wait()
}
