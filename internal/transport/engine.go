package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// The request/reply engine shared by the real backends. An active
// exchange is one round trip: check the link, dial (or borrow) a
// connection, write one frame and, for a pull, read and decode one
// reply. A passive exchange decodes one frame, runs the handler of its
// family (gossip or app) and encodes the answer. The stream strategy
// (tcp.go) and the datagram strategy (udp.go) differ only in how the
// bytes reach the peer; gossip and app frames take the same path.

// replyMsg is what a round trip returns: a gossip response or an app
// reply. Round trips are generic over it, so the reply decoder is chosen
// at compile time rather than through a per-call closure.
type replyMsg interface{ Response | AppMessage }

// frameBufs pools the encode and read buffers of the active path.
var frameBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2048)
		return &b
	},
}

// respDecoders pools decoders for active-side response frames. The
// interner inside each pooled decoder warms up independently; strings it
// hands out are immutable and safely outlive the pooled decoder's reuse.
var respDecoders = sync.Pool{New: func() any { return new(Decoder) }}

// unreachable wraps a socket failure on the way to addr.
func unreachable(addr string, err error) error {
	return fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, err)
}

// linkDeadline opens every active exchange on a real backend: it applies
// the injected link fault (see checkLinkFault) and returns the
// exchange's deadline, the caller's or else timeout from now.
func linkDeadline(ctx context.Context, from, to string, timeout time.Duration) (time.Time, error) {
	if err := checkLinkFault(ctx, from, to); err != nil {
		return time.Time{}, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		return deadline, nil
	}
	return time.Now().Add(timeout), nil
}

// dialPeer opens the socket for an exchange ("udp") or a pooled stream
// ("tcp"), counting the dial.
func dialPeer(ctx context.Context, network, addr string, deadline time.Time, stats *counters) (net.Conn, error) {
	d := net.Dialer{Deadline: deadline}
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, unreachable(addr, err)
	}
	stats.dials.Add(1)
	return conn, nil
}

// decodeReply decodes a reply frame into an owned message of kind R. A
// corrupt frame, or a request where a reply belongs, is counted as
// dropped.
func decodeReply[R replyMsg](frame []byte, stats *counters) (R, error) {
	var out R
	var isReq bool
	var err error
	switch r := any(&out).(type) {
	case *Response:
		dec := respDecoders.Get().(*Decoder)
		_, *r, isReq, err = dec.Decode(frame)
		// The decoded buffer aliases the pooled decoder; hand the caller an
		// owned copy (the addresses are interned and cost nothing to share).
		r.Buffer = append([]Descriptor(nil), r.Buffer...)
		respDecoders.Put(dec)
	case *AppMessage:
		*r, isReq, err = DecodeAppMessage(frame, nil)
		// The payload aliases the read buffer; hand back an owned copy.
		r.Payload = append([]byte(nil), r.Payload...)
	}
	if err == nil && isReq {
		err = errors.New("transport: peer answered with a request frame")
	}
	if err != nil {
		stats.dropped.Add(1)
		var none R
		return none, err
	}
	return out, nil
}

// inbound is one request frame of either family as the passive side sees
// it, decoded by the kind byte.
type inbound struct {
	app bool
	req Request
	msg AppMessage
}

// decode parses a request frame. Gossip descriptors land in dec's
// scratch, and every string goes through its interner. A reply frame is
// an error: no peer sends one unasked.
func (in *inbound) decode(frame []byte, dec *Decoder) error {
	var isReq bool
	var err error
	if in.app = isAppFrame(frame); in.app {
		in.msg, isReq, err = DecodeAppMessage(frame, &dec.intern)
	} else {
		in.req, _, isReq, err = dec.Decode(frame)
	}
	if err == nil && !isReq {
		err = errors.New("transport: unsolicited reply frame")
	}
	return err
}

// wantReply reports whether the frame pulls a reply.
func (in *inbound) wantReply() bool {
	if in.app {
		return in.msg.WantReply
	}
	return in.req.WantReply
}

// answer runs the handler of the frame's family and appends the encoded
// reply to dst. It returns nil when nothing goes back: a push, a
// declining handler, or an app frame with no app handler installed (which
// is counted as dropped, so a pull initiator times out exactly as if a
// gossip handler had declined). Only pulls are answered: on a persistent
// stream an unrequested reply would be misread as the answer to the
// peer's next exchange.
func (in *inbound) answer(dst []byte, h Handler, apps AppHandler, stats *counters) ([]byte, error) {
	if in.app {
		if apps == nil {
			stats.dropped.Add(1)
			return nil, nil
		}
		reply, ok := apps(in.msg)
		if !ok || !in.msg.WantReply {
			return nil, nil
		}
		return AppendAppMessage(dst, reply, true)
	}
	resp, ok := h(in.req)
	if !ok || !in.req.WantReply {
		return nil, nil
	}
	return AppendResponse(dst, resp)
}
