// Package core implements the generic gossip-based peer sampling protocol
// skeleton of Jelasity, Guerraoui, Kermarrec and van Steen, "The Peer
// Sampling Service: Experimental Evaluation of Unstructured Gossip-Based
// Implementations" (Middleware 2004), Figure 1.
//
// Every participating node maintains a partial view: an ordered list of at
// most c node descriptors, where a descriptor pairs a peer address with a
// hop count recording the age of the information. Views are kept ordered by
// increasing hop count, so the head of a view holds the freshest
// descriptors and the tail the oldest ones.
//
// The protocol skeleton is parameterised along three dimensions:
//
//   - peer selection: which view entry to gossip with (rand, head, tail),
//   - view propagation: who ships its view during an exchange (push, pull,
//     pushpull),
//   - view selection: how the merged buffer is truncated back to c entries
//     (rand, head, tail).
//
// The 3 x 3 x 3 = 27 combinations are all expressible; the paper's named
// instances are Lpbcast = (rand,rand,push) and Newscast =
// (rand,head,pushpull).
//
// The package is deliberately free of any I/O or scheduling concerns: a
// Node is a pure state machine over an abstract comparable address type.
// The cycle-based simulator (internal/sim) instantiates it with dense
// integer indices, while the asynchronous runtime (internal/runtime)
// instantiates it with network addresses.
//
// A received buffer goes into the view through one bounded merge. The
// merge leaves out the node's own address as it goes, and under head
// view selection it stops at the c freshest survivors. MergeInto is its
// unbounded form.
//
// A Node holds only its state: address, protocol, view and RNG. Callers
// own the exchange buffers: request and response buffers through the Into
// forms, and merge buffers through the Scratch lent by ShareScratch. The
// simulator lends one to all its nodes (one per worker when staged); a
// runtime node, never lent one, makes its own on its first merge.
package core
