package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// benchFleet builds n nodes of one protocol with view size c, each
// bootstrapped with c random others and all sharing one Scratch, as the
// simulator runs them. It returns exchange(i): node i mod n ages its view
// and gossips with its selected peer. Warm cycles shape the views first.
func benchFleet[A comparable](addr func(int) A, proto Protocol, n, c, warm int) (exchange func(i int)) {
	var s Scratch[A]
	rng := rand.New(rand.NewPCG(1, 2))
	nodes := make([]*Node[A], n)
	for i := range nodes {
		node, err := NewNode(addr(i), proto, c, rand.New(rand.NewPCG(3, uint64(i))))
		if err != nil {
			panic(err)
		}
		node.ShareScratch(&s)
		boot := make([]Descriptor[A], 0, c)
		for len(boot) < c {
			if j := rng.IntN(n); j != i {
				boot = append(boot, Descriptor[A]{Addr: addr(j)})
			}
		}
		node.Bootstrap(boot)
		nodes[i] = node
	}
	byAddr := make(map[A]*Node[A], n)
	for _, node := range nodes {
		byAddr[node.Self()] = node
	}
	var reqBuf, respBuf []Descriptor[A]
	exchange = func(i int) {
		node := nodes[i%n]
		node.AgeView()
		peer, err := node.SelectPeer()
		if err != nil {
			return
		}
		var req Request[A]
		req, reqBuf = node.MakeRequestInto(reqBuf)
		var resp Response[A]
		var ok bool
		resp, respBuf, ok = byAddr[peer].HandleRequestInto(req, respBuf)
		if ok {
			node.HandleResponse(resp)
		}
	}
	for i := 0; i < warm*n; i++ {
		exchange(i)
	}
	return exchange
}

// BenchmarkExchange times one exchange among 1 000 nodes with c = 30, the
// paper's setting, for each view selection under (rand, ·, pushpull),
// with the simulator's int32 addresses and with live "host:port" strings.
func BenchmarkExchange(b *testing.B) {
	const n, c = 1000, 30
	for _, vs := range []ViewSelection{ViewHead, ViewTail, ViewRand} {
		proto := Protocol{PeerSel: PeerRand, ViewSel: vs, Prop: PushPull}
		b.Run(fmt.Sprintf("int32/%v", vs), func(b *testing.B) {
			exchange := benchFleet(func(i int) int32 { return int32(i) }, proto, n, c, 5)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				exchange(i)
			}
		})
		b.Run(fmt.Sprintf("string/%v", vs), func(b *testing.B) {
			exchange := benchFleet(func(i int) string { return fmt.Sprintf("127.0.0.1:4%04d", i) }, proto, n, c, 5)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				exchange(i)
			}
		})
	}
}
