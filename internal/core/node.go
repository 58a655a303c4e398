package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// ErrEmptyView is returned by exchange initiation when the node knows no
// peers at all; the caller should retry after the next bootstrap or
// incoming exchange.
var ErrEmptyView = errors.New("core: view is empty")

// Request is the message an initiating (active) node sends to the selected
// peer. For push and pushpull protocols Buffer carries the initiator's
// view merged with its own zero-hop descriptor; for pull-only protocols
// Buffer is empty and merely triggers a response.
type Request[A comparable] struct {
	From   A
	Buffer []Descriptor[A]
	// WantReply mirrors Propagation.HasPull of the sender's protocol. It
	// travels with the message so that transports can route replies
	// without consulting protocol configuration.
	WantReply bool
}

// Response is the message a passive node returns to the initiator of a
// pull or pushpull exchange.
type Response[A comparable] struct {
	From   A
	Buffer []Descriptor[A]
}

// Node is the deterministic protocol state machine of a single
// participant: its own address, its partial view and the protocol tuple it
// executes. Node is not safe for concurrent use; wrap it (as
// internal/runtime does) when multiple goroutines are involved.
type Node[A comparable] struct {
	self  A
	proto Protocol
	view  *View[A]
	rng   *rand.Rand

	scratch *Scratch[A] // lent by ShareScratch, or made on the first merge
}

// Scratch is the working memory of one view merge: the merged buffer (up
// to 2c+1 descriptors) and the index permutation of random view selection.
// Nothing in it outlives the merge, so nodes whose merges never overlap
// in time can share one Scratch and hold only their state.
type Scratch[A comparable] struct {
	merged []Descriptor[A]
	idx    []int
}

// NewNode returns a node with an empty view of the given capacity,
// executing the given protocol. The rng drives rand peer/view selection
// and must not be shared with other nodes unless access is serialised.
func NewNode[A comparable](self A, proto Protocol, capacity int, rng *rand.Rand) (*Node[A], error) {
	if !proto.Valid() {
		return nil, fmt.Errorf("core: invalid protocol %+v", proto)
	}
	if rng == nil {
		return nil, errors.New("core: nil rng")
	}
	return &Node[A]{
		self:  self,
		proto: proto,
		view:  NewView[A](capacity),
		rng:   rng,
	}, nil
}

// ShareScratch makes the node merge in s from now on. The caller must
// ensure that no two nodes lent the same Scratch merge concurrently: the
// merging calls are HandleRequest, HandleRequestInto and HandleResponse.
func (n *Node[A]) ShareScratch(s *Scratch[A]) { n.scratch = s }

// Self returns the node's own address.
func (n *Node[A]) Self() A { return n.self }

// Protocol returns the protocol tuple the node executes.
func (n *Node[A]) Protocol() Protocol { return n.proto }

// View exposes the node's partial view. Mutating it directly is only
// appropriate during bootstrap.
func (n *Node[A]) View() *View[A] { return n.view }

// Bootstrap seeds the view with the given descriptors (typically a single
// contact node), implementing the init() method of the sampling service.
// The node's own address is filtered out.
func (n *Node[A]) Bootstrap(descriptors []Descriptor[A]) {
	kept := make([]Descriptor[A], 0, len(descriptors))
	for _, d := range descriptors {
		if d.Addr != n.self {
			kept = append(kept, d)
		}
	}
	n.view.SetAll(kept)
}

// AgeView increments the hop count of every resident descriptor. The
// environment (simulator or runtime) calls this exactly once per cycle per
// node, before the node initiates its exchange; see View.Age for why this
// deviation from the literal Figure 1 pseudocode is required.
func (n *Node[A]) AgeView() { n.view.Age() }

// SelectPeer picks the exchange partner for this cycle according to the
// peer selection policy. It returns ErrEmptyView when the view is empty.
func (n *Node[A]) SelectPeer() (A, error) {
	var zero A
	if n.view.Len() == 0 {
		return zero, ErrEmptyView
	}
	switch n.proto.PeerSel {
	case PeerRand:
		return n.view.At(n.rng.IntN(n.view.Len())).Addr, nil
	case PeerHead:
		return n.view.At(0).Addr, nil
	case PeerTail:
		return n.view.At(n.view.Len() - 1).Addr, nil
	default:
		return zero, fmt.Errorf("core: invalid peer selection policy %d", n.proto.PeerSel)
	}
}

// InitiateExchange runs the first half of the active thread of Figure 1:
// it selects a peer and builds the request to send. The caller is
// responsible for delivering the request and, for pull-enabled protocols,
// feeding the peer's response to HandleResponse.
func (n *Node[A]) InitiateExchange() (peer A, req Request[A], err error) {
	peer, err = n.SelectPeer()
	if err != nil {
		return peer, Request[A]{}, err
	}
	return peer, n.MakeRequest(), nil
}

// MakeRequest builds the request message of the active thread: for push
// protocols the view merged with the node's fresh self-descriptor, for
// pull-only protocols an empty buffer that triggers a response. The
// returned buffer is freshly allocated; environments that own a reusable
// buffer should call MakeRequestInto instead.
func (n *Node[A]) MakeRequest() Request[A] {
	req, _ := n.MakeRequestInto(nil)
	return req
}

// MakeRequestInto is MakeRequest building the request buffer inside buf
// (truncated first). It returns the request and the possibly grown buf for
// the caller to keep; the request's Buffer aliases it, so the caller must
// not rebuild into the same buf until the request has been consumed.
func (n *Node[A]) MakeRequestInto(buf []Descriptor[A]) (Request[A], []Descriptor[A]) {
	req := Request[A]{From: n.self, WantReply: n.proto.Prop.HasPull()}
	if n.proto.Prop.HasPush() {
		buf = n.outgoingInto(buf)
		req.Buffer = buf
	}
	return req, buf
}

// HandleRequest runs the passive thread of Figure 1 for one incoming
// request: it increments the hop counts of the received buffer, builds the
// response if the protocol pulls, and installs the merged, truncated view.
// The returned ok is false for push-only protocols, where no response is
// sent.
func (n *Node[A]) HandleRequest(req Request[A]) (resp Response[A], ok bool) {
	resp, _, ok = n.HandleRequestInto(req, nil)
	return resp, ok
}

// HandleRequestInto is HandleRequest building the response buffer inside
// buf (truncated first). It returns the response and the possibly grown
// buf for the caller to keep; the response's Buffer aliases it, so the
// caller must not rebuild into the same buf until the response has been
// consumed.
func (n *Node[A]) HandleRequestInto(req Request[A], buf []Descriptor[A]) (resp Response[A], out []Descriptor[A], ok bool) {
	IncreaseHop(req.Buffer)
	if req.WantReply {
		// Build the reply before merging, exactly as in Figure 1: the
		// response carries the pre-merge view plus our own descriptor.
		buf = n.outgoingInto(buf)
		resp = Response[A]{From: n.self, Buffer: buf}
		ok = true
	}
	n.applyBuffer(req.Buffer)
	return resp, buf, ok
}

// HandleResponse completes a pull or pushpull exchange on the active side:
// hop counts of the received buffer are incremented and the merged,
// truncated view is installed.
func (n *Node[A]) HandleResponse(resp Response[A]) {
	IncreaseHop(resp.Buffer)
	n.applyBuffer(resp.Buffer)
}

// outgoingInto writes merge(view, {(self, 0)}) into buf (truncated
// first) and returns it: the node's view with its own zero-hop descriptor
// in front. The view never contains its owner and the self-descriptor's
// hop count of zero is minimal, so the merge reduces to prepending self —
// exactly what a stable MergeInto would produce, since on equal hop counts
// (possible only transiently during bootstrap) the first operand's entry
// precedes the second's.
func (n *Node[A]) outgoingInto(buf []Descriptor[A]) []Descriptor[A] {
	buf = append(buf[:0], Descriptor[A]{Addr: n.self, Hop: 0})
	return append(buf, n.view.items...)
}

// applyBuffer merges a received buffer into the view and truncates it with
// the view selection policy, dropping any descriptor of the node itself.
// Following Figure 1 the received buffer is the first merge operand, so on
// equal hop counts received descriptors precede resident ones. Head
// selection keeps the c freshest entries, so its merge stops once it has
// them; tail and rand selection see the whole merge. The merge lands in
// the node's Scratch (view selection copies the survivors out), keeping
// steady-state exchanges allocation-free.
func (n *Node[A]) applyBuffer(received []Descriptor[A]) {
	if n.scratch == nil {
		n.scratch = new(Scratch[A])
	}
	s := n.scratch
	limit := math.MaxInt
	if n.proto.ViewSel == ViewHead {
		limit = n.view.capacity
	}
	s.merged = mergeKeep(s.merged, received, n.view.items, &n.self, limit)
	n.view.selectInto(n.proto.ViewSel, s.merged, s, n.rng)
}

// RandomPeer returns a uniform random element of the view, implementing
// the simplest getPeer() of the sampling service API. It returns
// ErrEmptyView when no peer is known.
func (n *Node[A]) RandomPeer() (A, error) {
	var zero A
	if n.view.Len() == 0 {
		return zero, ErrEmptyView
	}
	return n.view.At(n.rng.IntN(n.view.Len())).Addr, nil
}
