package transport

import (
	"strings"
	"testing"
	"testing/quick"

	"peersampling/internal/core"
)

func TestEncodeDecodeRequestRoundTrip(t *testing.T) {
	req := Request{
		From:      "10.0.0.1:9000",
		WantReply: true,
		Buffer: []Descriptor{
			{Addr: "10.0.0.2:9000", Hop: 0},
			{Addr: "10.0.0.3:9000", Hop: 7},
		},
	}
	frame, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	got, _, isReq, err := new(Decoder).Decode(frame)
	if err != nil || !isReq {
		t.Fatalf("decode: %v (isReq=%v)", err, isReq)
	}
	if got.From != req.From || got.WantReply != req.WantReply || len(got.Buffer) != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range req.Buffer {
		if got.Buffer[i] != req.Buffer[i] {
			t.Errorf("descriptor %d: %v != %v", i, got.Buffer[i], req.Buffer[i])
		}
	}
}

func TestEncodeDecodeResponseRoundTrip(t *testing.T) {
	resp := Response{From: "a", Buffer: []Descriptor{{Addr: "b", Hop: 3}}}
	frame, err := AppendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	_, got, isReq, err := new(Decoder).Decode(frame)
	if err != nil || isReq {
		t.Fatalf("decode: %v (isReq=%v)", err, isReq)
	}
	if got.From != "a" || len(got.Buffer) != 1 || got.Buffer[0] != resp.Buffer[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(from string, addrs []string, hops []int32, wantReply bool) bool {
		if len(from) > 64 {
			from = from[:64]
		}
		req := Request{From: from, WantReply: wantReply}
		for i, a := range addrs {
			if len(a) > 64 {
				a = a[:64]
			}
			var hop int32
			if i < len(hops) {
				hop = hops[i] & 0x7FFFFFFF // hops are non-negative
			}
			req.Buffer = append(req.Buffer, Descriptor{Addr: a, Hop: hop})
		}
		if len(req.Buffer) > MaxDescriptors {
			req.Buffer = req.Buffer[:MaxDescriptors]
		}
		frame, err := AppendRequest(nil, req)
		if err != nil {
			return false
		}
		got, _, isReq, err := new(Decoder).Decode(frame)
		if err != nil || !isReq {
			return false
		}
		if got.From != req.From || got.WantReply != req.WantReply || len(got.Buffer) != len(req.Buffer) {
			return false
		}
		for i := range req.Buffer {
			if got.Buffer[i] != req.Buffer[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeLimits(t *testing.T) {
	long := strings.Repeat("x", MaxAddrLen+1)
	if _, err := AppendRequest(nil, Request{From: long}); err == nil {
		t.Error("oversized From accepted")
	}
	if _, err := AppendRequest(nil, Request{From: "a", Buffer: []Descriptor{{Addr: long}}}); err == nil {
		t.Error("oversized descriptor address accepted")
	}
	big := make([]Descriptor, MaxDescriptors+1)
	for i := range big {
		big[i] = Descriptor{Addr: "a"}
	}
	if _, err := AppendRequest(nil, Request{From: "a", Buffer: big}); err == nil {
		t.Error("oversized buffer accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x00},                                   // bad magic
		{codecMagic},                             // truncated
		{codecMagic, 9, 0, 0, 0},                 // unknown kind (and truncated strings)
		{codecMagic, kindRequest, 0, 0xFF, 0xFF}, // absurd from length
	}
	for i, frame := range cases {
		if _, _, _, err := new(Decoder).Decode(frame); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Trailing bytes after a valid message are an error.
	good, err := AppendRequest(nil, Request{From: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := new(Decoder).Decode(append(good, 0x00)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestDecodeTruncatedAtEveryPoint(t *testing.T) {
	req := Request{
		From:      "node-1",
		WantReply: true,
		Buffer:    []Descriptor{{Addr: "node-2", Hop: 1}, {Addr: "node-3", Hop: 2}},
	}
	frame, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, _, _, err := new(Decoder).Decode(frame[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

var _ = core.Descriptor[string]{} // the alias must stay assignable to the core type
