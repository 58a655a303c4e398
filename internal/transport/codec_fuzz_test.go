package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// fuzzSeeds returns hand-built hostile frames seeding both fuzz targets:
// valid messages, truncations, bad magic, lying length fields and
// oversized counts. The fuzzer mutates outward from these.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	req, err := AppendRequest(nil, Request{
		From:      "10.0.0.1:9000",
		WantReply: true,
		Buffer: []Descriptor{
			{Addr: "10.0.0.2:9000", Hop: 0},
			{Addr: "10.0.0.3:9000", Hop: 7},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := AppendResponse(nil, Response{
		From:   "peer-a",
		Buffer: []Descriptor{{Addr: "peer-b", Hop: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{
		req,
		resp,
		req[:len(req)-1],         // truncated mid-descriptor
		req[:3],                  // header only
		{},                       // empty frame
		{0x00, kindRequest, 0},   // bad magic
		{codecMagic, 9, 0, 0, 0}, // unknown kind
	}
	// Descriptor count far beyond what the frame carries.
	overCount := append([]byte(nil), resp...)
	binary.BigEndian.PutUint16(overCount[3+2+6:], MaxDescriptors+1)
	seeds = append(seeds, overCount)
	// String length field pointing past the end of the frame.
	lyingStr := append([]byte(nil), resp...)
	binary.BigEndian.PutUint16(lyingStr[3:], 0xFFFF)
	seeds = append(seeds, lyingStr)
	// A count the frame cannot satisfy (claims 100, carries 1).
	shortBuf := append([]byte(nil), resp...)
	binary.BigEndian.PutUint16(shortBuf[3+2+6:], 100)
	seeds = append(seeds, shortBuf)
	// Hops out of order: [x@9 y@0].
	unordered, err := AppendRequest(nil, Request{From: "a", Buffer: []Descriptor{{Addr: "x", Hop: 9}, {Addr: "y", Hop: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	return append(seeds, unordered)
}

// FuzzDecodeMessage throws arbitrary frames at the decoder. The decoder
// must never panic; on accepted frames the message must re-encode into
// exactly the input (the format is canonical: one valid encoding per
// message), and a decoder reused across frames (its scratch and interner
// warm) must agree with a fresh one.
func FuzzDecodeMessage(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	var dec Decoder
	f.Fuzz(func(t *testing.T, frame []byte) {
		req, resp, isReq, err := new(Decoder).Decode(frame)
		preq, presp, pisReq, perr := dec.Decode(frame)
		if (err == nil) != (perr == nil) {
			t.Fatalf("reused decoder disagrees on error: %v vs %v", err, perr)
		}
		if err != nil {
			return
		}
		if pisReq != isReq {
			t.Fatal("reused decoder disagrees on message kind")
		}
		var reencoded []byte
		if isReq {
			if preq.From != req.From || preq.WantReply != req.WantReply || !equalDescs(preq.Buffer, req.Buffer) {
				t.Fatalf("reused decoder diverges on request: %+v vs %+v", preq, req)
			}
			reencoded, err = AppendRequest(nil, req)
		} else {
			if presp.From != resp.From || !equalDescs(presp.Buffer, resp.Buffer) {
				t.Fatalf("reused decoder diverges on response: %+v vs %+v", presp, resp)
			}
			reencoded, err = AppendResponse(nil, resp)
		}
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(reencoded, frame) {
			t.Fatalf("re-encoding differs from accepted frame:\n in: %x\nout: %x", frame, reencoded)
		}
	})
}

// FuzzCodecRoundTrip builds messages from fuzzed parts and checks
// encode/decode is lossless. Addresses are carved out of raw fuzz bytes,
// so they cover non-UTF-8, embedded NULs and length extremes.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add("node-1", true, []byte("peerApeerBpeerC"), uint8(5), int32(3))
	f.Add("", false, []byte{}, uint8(0), int32(0))
	f.Add("x", true, bytes.Repeat([]byte{0}, 1024), uint8(255), int32(-1))
	f.Fuzz(func(t *testing.T, from string, wantReply bool, addrBytes []byte, chunk uint8, hop int32) {
		// Slice addrBytes into chunk-sized addresses (chunk 0 → no buffer).
		var buffer []Descriptor
		if chunk > 0 {
			for off := 0; off < len(addrBytes); off += int(chunk) {
				end := off + int(chunk)
				if end > len(addrBytes) {
					end = len(addrBytes)
				}
				buffer = append(buffer, Descriptor{Addr: string(addrBytes[off:end]), Hop: hop + int32(off)})
			}
		}
		req := Request{From: from, WantReply: wantReply, Buffer: buffer}
		frame, err := AppendRequest(nil, req)
		if err != nil {
			// Only over-limit inputs may be rejected, and the limits are
			// part of the contract — verify the rejection is justified.
			if len(from) <= MaxAddrLen && len(buffer) <= MaxDescriptors {
				for _, d := range buffer {
					if len(d.Addr) > MaxAddrLen {
						return
					}
				}
				t.Fatalf("in-limit request rejected: %v", err)
			}
			return
		}
		got, _, isReq, err := new(Decoder).Decode(frame)
		if !hopOrdered(buffer) {
			// Encodable, but not a view: the decoder must refuse it.
			if err == nil {
				t.Fatalf("decoder accepted a buffer out of hop order or range: %v", buffer)
			}
			return
		}
		if err != nil || !isReq {
			t.Fatalf("round trip decode failed: isReq=%v err=%v", isReq, err)
		}
		if got.From != req.From || got.WantReply != req.WantReply || !equalDescs(got.Buffer, req.Buffer) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, req)
		}
	})
}

// hopOrdered reports whether buf is ordered by non-decreasing hop with
// every hop in [0, MaxInt32-1], the buffers the decoder accepts.
func hopOrdered(buf []Descriptor) bool {
	for i, d := range buf {
		if d.Hop < 0 || d.Hop == math.MaxInt32 || i > 0 && d.Hop < buf[i-1].Hop {
			return false
		}
	}
	return true
}

func equalDescs(a, b []Descriptor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
