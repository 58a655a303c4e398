package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"peersampling/internal/core"
)

// Wire format (all integers big-endian):
//
//	byte    magic (0x9D)
//	byte    kind (1 = request, 2 = response)
//	byte    flags (bit 0: WantReply, requests only)
//	u16     from-address length, followed by the bytes
//	u16     descriptor count
//	repeat: u16 address length, address bytes, i32 hop count
//
// The descriptors of a buffer come in non-decreasing hop order, each hop
// at most MaxInt32-1; decoding rejects any other buffer.
//
// The format is deliberately version-tagged by the magic byte so that a
// future revision can change it without silently misparsing old peers.
const (
	codecMagic   = 0x9D
	kindRequest  = 1
	kindResponse = 2

	// MaxAddrLen bounds a single address; MaxDescriptors bounds a view
	// buffer. Both protect servers from hostile or corrupt frames.
	MaxAddrLen     = 512
	MaxDescriptors = 4096

	// MaxFrameSize bounds a single length-prefixed frame on the TCP
	// transports; a full view of MaxDescriptors maximal descriptors fits
	// comfortably. The UDP transport enforces its own, much smaller bound
	// (MaxDatagramSize) since a message must fit one datagram there.
	MaxFrameSize = 1 << 22
)

// AppendRequest appends the encoded request to dst and returns the
// extended slice, allocating only when dst lacks capacity. dst may be nil.
func AppendRequest(dst []byte, req Request) ([]byte, error) {
	flags := byte(0)
	if req.WantReply {
		flags = 1
	}
	return appendMessage(dst, kindRequest, flags, req.From, req.Buffer)
}

// AppendResponse appends the encoded response to dst and returns the
// extended slice, allocating only when dst lacks capacity. dst may be nil.
func AppendResponse(dst []byte, resp Response) ([]byte, error) {
	return appendMessage(dst, kindResponse, 0, resp.From, resp.Buffer)
}

func appendMessage(dst []byte, kind, flags byte, from string, buffer []core.Descriptor[string]) ([]byte, error) {
	if len(from) > MaxAddrLen {
		return nil, fmt.Errorf("transport: from address %d bytes exceeds limit %d", len(from), MaxAddrLen)
	}
	if len(buffer) > MaxDescriptors {
		return nil, fmt.Errorf("transport: %d descriptors exceed limit %d", len(buffer), MaxDescriptors)
	}
	size := 3 + 2 + len(from) + 2
	for _, d := range buffer {
		if len(d.Addr) > MaxAddrLen {
			return nil, fmt.Errorf("transport: descriptor address %d bytes exceeds limit %d", len(d.Addr), MaxAddrLen)
		}
		size += 2 + len(d.Addr) + 4
	}
	out := dst
	if need := len(out) + size; cap(out) < need {
		grown := make([]byte, len(out), need)
		copy(grown, out)
		out = grown
	}
	out = append(out, codecMagic, kind, flags)
	out = appendString(out, from)
	out = binary.BigEndian.AppendUint16(out, uint16(len(buffer)))
	for _, d := range buffer {
		out = appendString(out, d.Addr)
		out = binary.BigEndian.AppendUint32(out, uint32(d.Hop))
	}
	return out, nil
}

func appendString(out []byte, s string) []byte {
	out = binary.BigEndian.AppendUint16(out, uint16(len(s)))
	return append(out, s...)
}

// DecodeMessageInto parses a frame produced by AppendRequest or
// AppendResponse. Exactly one of req/resp is meaningful, selected by
// isRequest. When scratch is non-nil the descriptor buffer is built
// inside *scratch (truncated first, grown as needed, and written back),
// so the returned message aliases it and is only valid until the caller
// reuses the scratch. A non-nil interner deduplicates address strings
// across calls; it must not be shared between goroutines without
// external locking. Hot paths usually go through a Decoder.
func DecodeMessageInto(frame []byte, scratch *[]Descriptor, intern *Interner) (req Request, resp Response, isRequest bool, err error) {
	r := reader{buf: frame, intern: intern}
	magic, err := r.byte()
	if err != nil {
		return req, resp, false, err
	}
	if magic != codecMagic {
		return req, resp, false, fmt.Errorf("transport: bad magic 0x%02X", magic)
	}
	kind, err := r.byte()
	if err != nil {
		return req, resp, false, err
	}
	flags, err := r.byte()
	if err != nil {
		return req, resp, false, err
	}
	from, err := r.str()
	if err != nil {
		return req, resp, false, err
	}
	count, err := r.u16()
	if err != nil {
		return req, resp, false, err
	}
	if count > MaxDescriptors {
		return req, resp, false, fmt.Errorf("transport: descriptor count %d exceeds limit", count)
	}
	var buffer []core.Descriptor[string]
	if scratch != nil {
		buffer = (*scratch)[:0]
	} else {
		buffer = make([]core.Descriptor[string], 0, count)
	}
	for i := 0; i < int(count); i++ {
		addr, err := r.str()
		if err != nil {
			return req, resp, false, err
		}
		hop, err := r.u32()
		if err != nil {
			return req, resp, false, err
		}
		buffer = append(buffer, core.Descriptor[string]{Addr: addr, Hop: int32(hop)})
	}
	if scratch != nil {
		*scratch = buffer
	}
	if err := checkHops(buffer); err != nil {
		return req, resp, false, err
	}
	if r.rem() != 0 {
		return req, resp, false, fmt.Errorf("transport: %d trailing bytes", r.rem())
	}
	switch kind {
	case kindRequest:
		if flags&^1 != 0 {
			// Unknown flag bits mean a newer (or corrupt) peer; rejecting
			// keeps the format canonical — every accepted frame re-encodes
			// byte-identically.
			return req, resp, false, fmt.Errorf("transport: unknown request flags 0x%02X", flags)
		}
		return Request{From: from, Buffer: buffer, WantReply: flags&1 != 0}, resp, true, nil
	case kindResponse:
		if flags != 0 {
			return req, resp, false, fmt.Errorf("transport: unknown response flags 0x%02X", flags)
		}
		return req, Response{From: from, Buffer: buffer}, false, nil
	default:
		return req, resp, false, fmt.Errorf("transport: unknown message kind %d", kind)
	}
}

// checkHops reports the first descriptor of buf that keeps it from being
// a view: hops must not decrease, and each must stay a non-negative int32
// once the receiver adds 1.
func checkHops(buf []Descriptor) error {
	var prev int32
	for i, d := range buf {
		switch {
		case d.Hop < 0 || d.Hop == math.MaxInt32:
			return fmt.Errorf("transport: descriptor %d hop %d does not fit a non-negative int32 once the receiver adds 1", i, uint32(d.Hop))
		case d.Hop < prev:
			return fmt.Errorf("transport: descriptor %d hop %d is below the previous hop %d; buffers must be ordered by hop", i, d.Hop, prev)
		}
		prev = d.Hop
	}
	return nil
}

// Interner deduplicates address strings decoded from the wire. Gossip
// traffic names the same few hundred peers over and over, so interning
// turns the per-descriptor string allocation — the dominant decode cost —
// into a map lookup at steady state. The table is bounded: once maxInternEntries
// distinct addresses have been seen it is reset rather than grown, which
// caps what a hostile peer streaming random addresses can pin in memory.
// An Interner is not safe for concurrent use; give each connection,
// serve loop or pooled decoder its own.
type Interner struct {
	m map[string]string
}

// maxInternEntries bounds one Interner's table. At MaxAddrLen per entry
// this caps the table at ~2MB, far below what a single hostile
// connection could otherwise accumulate.
const maxInternEntries = 4096

// Intern returns a string equal to b, reusing a previously returned
// instance when one exists.
func (in *Interner) Intern(b []byte) string {
	// The map index with a string(b) conversion does not allocate; only a
	// genuinely new address pays for its string.
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	if in.m == nil || len(in.m) >= maxInternEntries {
		in.m = make(map[string]string, 64)
	}
	s := string(b)
	in.m[s] = s
	return s
}

// Decoder bundles the caller-owned decode state of the pooled codec path:
// a reusable descriptor buffer and an address interner. The zero value is
// ready to use. Messages returned by Decode alias the decoder's buffer
// and are only valid until the next Decode call; a Decoder is not safe
// for concurrent use.
type Decoder struct {
	scratch []Descriptor
	intern  Interner
}

// Decode parses a frame like DecodeMessageInto, reusing the decoder's
// descriptor buffer and interned addresses.
func (d *Decoder) Decode(frame []byte) (req Request, resp Response, isRequest bool, err error) {
	return DecodeMessageInto(frame, &d.scratch, &d.intern)
}

// reader is a bounds-checked cursor over a frame.
type reader struct {
	buf    []byte
	pos    int
	intern *Interner
}

func (r *reader) rem() int { return len(r.buf) - r.pos }

func (r *reader) byte() (byte, error) {
	if r.rem() < 1 {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) u16() (uint16, error) {
	if r.rem() < 2 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.BigEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.rem() < 4 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if int(n) > MaxAddrLen {
		return "", fmt.Errorf("transport: string length %d exceeds limit %d", n, MaxAddrLen)
	}
	if r.rem() < int(n) {
		return "", io.ErrUnexpectedEOF
	}
	raw := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	if r.intern != nil {
		return r.intern.Intern(raw), nil
	}
	return string(raw), nil
}
