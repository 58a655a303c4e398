package transport

import (
	"math"
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
				hop = hops[i] & 0x7FFFFFFF % math.MaxInt32 // in [0, MaxInt32-1]
			}
			req.Buffer = append(req.Buffer, Descriptor{Addr: a, Hop: hop})
		}
		if len(req.Buffer) > MaxDescriptors {
			req.Buffer = req.Buffer[:MaxDescriptors]
		}
		core.SortByHop(req.Buffer) // a buffer is a view, ordered by hop
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

// TestDecodeRejectsBadHops: a buffer must be ordered by non-decreasing
// hop, and each hop must still fit a non-negative int32 once the
// receiver adds 1. The error names the rule.
func TestDecodeRejectsBadHops(t *testing.T) {
	cases := []struct {
		name string
		buf  []Descriptor
		want string // substring of the error; empty: accepted
	}{
		{"decreasing", []Descriptor{{Addr: "x", Hop: 9}, {Addr: "y", Hop: 0}}, "ordered by hop"},
		{"decreasing later", []Descriptor{{Addr: "x", Hop: 0}, {Addr: "y", Hop: 3}, {Addr: "z", Hop: 2}}, "descriptor 2 hop 2 is below the previous hop 3"},
		{"max int32", []Descriptor{{Addr: "x", Hop: math.MaxInt32}}, "does not fit a non-negative int32"},
		{"negative", []Descriptor{{Addr: "x", Hop: -1}}, "does not fit a non-negative int32"},
		{"equal hops", []Descriptor{{Addr: "x", Hop: 4}, {Addr: "y", Hop: 4}}, ""},
		{"largest hop", []Descriptor{{Addr: "x", Hop: 0}, {Addr: "y", Hop: math.MaxInt32 - 1}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, encode := range []func([]Descriptor) ([]byte, error){
				func(b []Descriptor) ([]byte, error) { return AppendRequest(nil, Request{From: "a", Buffer: b}) },
				func(b []Descriptor) ([]byte, error) { return AppendResponse(nil, Response{From: "a", Buffer: b}) },
			} {
				frame, err := encode(tc.buf)
				if err != nil {
					t.Fatal(err)
				}
				_, _, _, err = new(Decoder).Decode(frame)
				switch {
				case tc.want == "" && err != nil:
					t.Fatalf("valid buffer %v rejected: %v", tc.buf, err)
				case tc.want != "" && err == nil:
					t.Fatalf("buffer %v accepted", tc.buf)
				case tc.want != "" && !strings.Contains(err.Error(), tc.want):
					t.Fatalf("error %q does not mention %q", err, tc.want)
				}
			}
		})
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
