package core

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func newTestNode(t *testing.T, self int32, proto Protocol, capacity int) *Node[int32] {
	t.Helper()
	n, err := NewNode(self, proto, capacity, rand.New(rand.NewPCG(uint64(self), 42)))
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	return n
}

func TestNewNodeValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := NewNode[int32](1, Protocol{}, 4, rng); err == nil {
		t.Error("invalid protocol accepted")
	}
	if _, err := NewNode[int32](1, Newscast, 4, nil); err == nil {
		t.Error("nil rng accepted")
	}
	n, err := NewNode[int32](7, Newscast, 4, rng)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	if n.Self() != 7 || n.Protocol() != Newscast || n.View().capacity != 4 {
		t.Error("accessors wrong")
	}
}

func TestBootstrapFiltersSelf(t *testing.T) {
	n := newTestNode(t, 1, Newscast, 4)
	n.Bootstrap(descs(1, 0, 2, 0, 3, 1))
	if n.View().Contains(1) {
		t.Error("bootstrap kept self descriptor")
	}
	if n.View().Len() != 2 {
		t.Errorf("view len = %d want 2", n.View().Len())
	}
}

func TestSelectPeerPolicies(t *testing.T) {
	mk := func(ps PeerSelection) *Node[int32] {
		n := newTestNode(t, 0, Protocol{PeerSel: ps, ViewSel: ViewHead, Prop: PushPull}, 8)
		n.Bootstrap(descs(1, 1, 2, 2, 3, 3))
		return n
	}
	if p, err := mk(PeerHead).SelectPeer(); err != nil || p != 1 {
		t.Errorf("head peer = %d,%v want 1", p, err)
	}
	if p, err := mk(PeerTail).SelectPeer(); err != nil || p != 3 {
		t.Errorf("tail peer = %d,%v want 3", p, err)
	}
	n := mk(PeerRand)
	seen := map[int32]bool{}
	for i := 0; i < 200; i++ {
		p, err := n.SelectPeer()
		if err != nil {
			t.Fatal(err)
		}
		if p != 1 && p != 2 && p != 3 {
			t.Fatalf("rand peer %d not in view", p)
		}
		seen[p] = true
	}
	if len(seen) != 3 {
		t.Errorf("rand selection over 200 draws only hit %d peers", len(seen))
	}
}

func TestSelectPeerEmptyView(t *testing.T) {
	n := newTestNode(t, 0, Newscast, 4)
	if _, err := n.SelectPeer(); !errors.Is(err, ErrEmptyView) {
		t.Errorf("err = %v want ErrEmptyView", err)
	}
	if _, _, err := n.InitiateExchange(); !errors.Is(err, ErrEmptyView) {
		t.Errorf("InitiateExchange err = %v want ErrEmptyView", err)
	}
	if _, err := n.RandomPeer(); !errors.Is(err, ErrEmptyView) {
		t.Errorf("RandomPeer err = %v want ErrEmptyView", err)
	}
}

func TestMakeRequestPushIncludesFreshSelf(t *testing.T) {
	n := newTestNode(t, 9, Newscast, 4)
	n.Bootstrap(descs(2, 1, 3, 2))
	req := n.MakeRequest()
	if !req.WantReply {
		t.Error("pushpull request must want a reply")
	}
	if len(req.Buffer) != 3 {
		t.Fatalf("buffer len = %d want 3", len(req.Buffer))
	}
	if req.Buffer[0] != (Descriptor[int32]{Addr: 9, Hop: 0}) {
		t.Errorf("first buffer entry = %v want self@0", req.Buffer[0])
	}
}

func TestMakeRequestPullOnlyIsEmpty(t *testing.T) {
	n := newTestNode(t, 9, Protocol{PeerRand, ViewHead, Pull}, 4)
	n.Bootstrap(descs(2, 1))
	req := n.MakeRequest()
	if len(req.Buffer) != 0 {
		t.Errorf("pull request carries %d descriptors, want 0", len(req.Buffer))
	}
	if !req.WantReply {
		t.Error("pull request must want a reply")
	}
}

func TestMakeRequestPushOnlyNoReply(t *testing.T) {
	n := newTestNode(t, 9, Lpbcast, 4)
	n.Bootstrap(descs(2, 1))
	if req := n.MakeRequest(); req.WantReply {
		t.Error("push-only request wants a reply")
	}
}

func TestHandleRequestPushPull(t *testing.T) {
	a := newTestNode(t, 1, Newscast, 3)
	b := newTestNode(t, 2, Newscast, 3)
	a.Bootstrap(descs(2, 1, 3, 2))
	b.Bootstrap(descs(4, 1, 5, 2))

	peer, req, err := a.InitiateExchange()
	if err != nil {
		t.Fatal(err)
	}
	if peer != 2 && peer != 3 {
		t.Fatalf("selected peer %d not in view", peer)
	}

	resp, ok := b.HandleRequest(req)
	if !ok {
		t.Fatal("pushpull passive side did not reply")
	}
	// Response carries b's pre-merge view plus b@0.
	if resp.From != 2 || resp.Buffer[0] != (Descriptor[int32]{Addr: 2, Hop: 0}) {
		t.Errorf("response head = %v want 2@0", resp.Buffer[0])
	}
	if containsAddr(resp.Buffer, 1) {
		t.Error("response leaked the initiator's fresh descriptor (merge must happen after reply)")
	}

	// b's view now knows a with hop 1 (0 incremented on receipt).
	if h, ok := hopOf(b.View(), 1); !ok || h != 1 {
		t.Errorf("b's hop for a = %d,%v want 1,true", h, ok)
	}
	if b.View().Contains(2) {
		t.Error("b stored its own descriptor")
	}
	if b.View().Len() > b.View().capacity {
		t.Errorf("b's view overflows: %d > %d", b.View().Len(), b.View().capacity)
	}

	a.HandleResponse(resp)
	if h, ok := hopOf(a.View(), 2); !ok || h != 1 {
		t.Errorf("a's hop for b = %d,%v want 1,true", h, ok)
	}
	if a.View().Contains(1) {
		t.Error("a stored its own descriptor")
	}
}

func TestHandleRequestPushOnlyDoesNotReply(t *testing.T) {
	a := newTestNode(t, 1, Lpbcast, 3)
	b := newTestNode(t, 2, Lpbcast, 3)
	a.Bootstrap(descs(2, 1))
	b.Bootstrap(descs(3, 1))
	_, req, err := a.InitiateExchange()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.HandleRequest(req); ok {
		t.Error("push-only passive side produced a reply")
	}
	if !b.View().Contains(1) {
		t.Error("b did not learn about a")
	}
	// a's state must be untouched by a push-only exchange.
	if a.View().Len() != 1 || !a.View().Contains(2) {
		t.Errorf("a's view changed: %v", a.View())
	}
}

func TestPullOnlyExchange(t *testing.T) {
	proto := Protocol{PeerRand, ViewHead, Pull}
	a := newTestNode(t, 1, proto, 3)
	b := newTestNode(t, 2, proto, 3)
	a.Bootstrap(descs(2, 1))
	b.Bootstrap(descs(3, 1))

	_, req, err := a.InitiateExchange()
	if err != nil {
		t.Fatal(err)
	}
	resp, ok := b.HandleRequest(req)
	if !ok {
		t.Fatal("pull passive side did not reply")
	}
	// b must not have learned anything about a (empty push buffer).
	if b.View().Contains(1) {
		t.Error("pull-only leaked initiator descriptor to passive side")
	}
	a.HandleResponse(resp)
	if !a.View().Contains(3) || !a.View().Contains(2) {
		t.Errorf("a failed to pull b's view: %v", a.View())
	}
}

func TestHopCountsGrowAlongChains(t *testing.T) {
	// a pushes to b; later b pushes to c; c must see a with hop 2.
	a := newTestNode(t, 1, Lpbcast, 8)
	b := newTestNode(t, 2, Lpbcast, 8)
	c := newTestNode(t, 3, Lpbcast, 8)
	a.Bootstrap(descs(2, 1))
	b.Bootstrap(descs(3, 1))
	c.Bootstrap(descs(1, 5))

	_, req, _ := a.InitiateExchange()
	b.HandleRequest(req)
	_, req2, _ := b.InitiateExchange()
	// Force the exchange toward c regardless of random peer selection.
	req2.From = 2
	c.HandleRequest(req2)

	h, ok := hopOf(c.View(), 1)
	if !ok {
		t.Fatal("c never learned about a")
	}
	if h != 2 && h != 5 {
		t.Errorf("hop for a at c = %d, want 2 (via chain) or 5 (bootstrap)", h)
	}
	// The merge keeps the minimum: chain hop 2 < bootstrap hop 5.
	if h != 2 {
		t.Errorf("merge did not keep lowest hop: got %d want 2", h)
	}
}

func TestViewNeverExceedsCapacityNorContainsSelf(t *testing.T) {
	// Property: random exchange sequences preserve the node invariants.
	f := func(seed uint64, steps uint8, protoIdx uint8) bool {
		protos := StudiedProtocols()
		proto := protos[int(protoIdx)%len(protos)]
		rng := rand.New(rand.NewPCG(seed, 1))
		const n, c = 8, 3
		nodes := make([]*Node[int32], n)
		for i := range nodes {
			node, err := NewNode(int32(i), proto, c, rand.New(rand.NewPCG(seed, uint64(i))))
			if err != nil {
				return false
			}
			node.Bootstrap(descs(int32((i+1)%n), 0))
			nodes[i] = node
		}
		for s := 0; s < int(steps); s++ {
			a := nodes[rng.IntN(n)]
			peer, req, err := a.InitiateExchange()
			if err != nil {
				continue
			}
			b := nodes[peer]
			if resp, ok := b.HandleRequest(req); ok {
				a.HandleResponse(resp)
			}
			for _, node := range nodes {
				v := node.View()
				if v.Len() > c || v.Contains(node.Self()) {
					return false
				}
				for i := 1; i < v.Len(); i++ {
					if v.At(i).Hop < v.At(i-1).Hop {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPeerIsViewMember(t *testing.T) {
	n := newTestNode(t, 0, Newscast, 8)
	n.Bootstrap(descs(1, 1, 2, 2, 3, 3))
	for i := 0; i < 50; i++ {
		p, err := n.RandomPeer()
		if err != nil {
			t.Fatal(err)
		}
		if !n.View().Contains(p) {
			t.Fatalf("RandomPeer returned %d not in view", p)
		}
	}
}

// randomDescs returns up to n descriptors over addresses [0, addrs) with
// hops in [0, 8), sorted by hop; unique drops repeated addresses.
func randomDescs(rng *rand.Rand, n, addrs int, unique bool) []Descriptor[int32] {
	var out []Descriptor[int32]
	for range n {
		d := Descriptor[int32]{Addr: int32(rng.IntN(addrs)), Hop: int32(rng.IntN(8))}
		if !unique || !containsAddr(out, d.Addr) {
			out = append(out, d)
		}
	}
	SortByHop(out)
	return out
}

// TestApplyBufferMatchesFullMerge checks the merge applyBuffer runs,
// bounded under head selection and dropping self as it goes, against the
// pipeline it stands for: the full merge, then dropAddr, then selectInto.
// Both sides draw from copies of one RNG stream, which must still agree
// afterwards.
func TestApplyBufferMatchesFullMerge(t *testing.T) {
	for _, vs := range []ViewSelection{ViewHead, ViewTail, ViewRand} {
		t.Run(vs.String(), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(7, uint64(vs)))
			for trial := range 500 {
				c := 1 + rng.IntN(12)
				self := int32(rng.IntN(24))
				view := dropAddr(randomDescs(rng, c, 24, true), self)
				// Received buffers may name self and repeat addresses.
				received := randomDescs(rng, rng.IntN(2*c+2), 24, false)
				checkApplyBuffer(t, vs, self, c, view, received, uint64(trial))
				me := stringAddrs(descs(self, 0))[0].Addr
				checkApplyBuffer(t, vs, me, c, stringAddrs(view), stringAddrs(received), uint64(trial))
			}
		})
	}
}

func checkApplyBuffer[A comparable](t *testing.T, vs ViewSelection, self A, c int, view, received []Descriptor[A], seed uint64) {
	t.Helper()
	proto := Protocol{PeerSel: PeerRand, ViewSel: vs, Prop: PushPull}
	got, err := NewNode(self, proto, c, rand.New(rand.NewPCG(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewNode(self, proto, c, rand.New(rand.NewPCG(seed, 1)))
	got.view.items = append(got.view.items, view...)
	want.view.items = append(want.view.items, view...)

	got.applyBuffer(received)
	merged := dropAddr(MergeInto(nil, received, want.view.items), self)
	want.view.selectInto(vs, merged, new(Scratch[A]), want.rng)

	if !slices.Equal(got.view.items, want.view.items) {
		t.Fatalf("self %v, view %v, received %v:\n got %v\nwant %v", self, view, received, got.view, want.view)
	}
	if g, w := got.rng.Uint64(), want.rng.Uint64(); g != w {
		t.Fatalf("self %v, view %v, received %v: RNG streams diverged", self, view, received)
	}
}
