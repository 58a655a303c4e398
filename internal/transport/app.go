package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Application payload frames let workloads (epidemic broadcast, push-pull
// aggregation) ride the same wire, connections and codec machinery as the
// gossip exchanges, distinguished by the kind byte:
//
//	byte    magic (0x9D)
//	byte    kind (3 = app request, 4 = app reply)
//	byte    flags (bit 0: WantReply, requests only)
//	u16     from-address length, followed by the bytes
//	u16     topic length, followed by the bytes
//	u32     payload length, followed by the bytes
//
// The from and topic strings obey MaxAddrLen like every wire string; the
// opaque payload is bounded by MaxAppPayload. Like the gossip format,
// unknown flag bits are rejected so every accepted frame re-encodes
// byte-identically.
const (
	kindApp      = 3
	kindAppReply = 4

	// MaxAppPayload bounds one application payload. It is far below
	// MaxFrameSize: workload messages are rumors and scalar aggregates,
	// not bulk transfer.
	MaxAppPayload = 1 << 20
)

// AppMessage is an application payload addressed to a workload engine by
// topic. Payload is opaque to the transport. On the passive side the
// payload aliases transport-owned storage and is only valid for the
// duration of the handler call, mirroring the Request.Buffer ownership
// contract; handlers that retain it must copy.
type AppMessage struct {
	From      string
	Topic     string
	Payload   []byte
	WantReply bool
}

// AppHandler processes one incoming application message on the passive
// side and returns the reply to send back when the message pulls one
// (WantReply set and ok true). Implementations must be safe for
// concurrent use.
type AppHandler func(msg AppMessage) (reply AppMessage, ok bool)

// AppCarrier is the optional capability of carrying application payloads
// alongside gossip exchanges. All real transports and the in-memory
// fabric implement it; callers discover it with a type assertion, the
// same pattern as StatsReporter and LimitsUpdater.
type AppCarrier interface {
	// SetAppHandler installs (or, with nil, removes) the handler for
	// incoming app messages. Messages arriving with no handler installed
	// are dropped.
	SetAppHandler(h AppHandler)
	// ExchangeApp delivers msg to addr and, when msg.WantReply is set,
	// waits for the peer's reply. ok reports whether a reply arrived.
	// Push-only delivery is best-effort, exactly like Exchange.
	ExchangeApp(ctx context.Context, addr string, msg AppMessage) (reply AppMessage, ok bool, err error)
}

// AppendAppMessage appends the encoded message to dst and returns the
// extended slice. reply selects the app-reply kind (replies never carry
// the WantReply flag).
func AppendAppMessage(dst []byte, msg AppMessage, reply bool) ([]byte, error) {
	if len(msg.From) > MaxAddrLen {
		return nil, fmt.Errorf("transport: from address %d bytes exceeds limit %d", len(msg.From), MaxAddrLen)
	}
	if len(msg.Topic) > MaxAddrLen {
		return nil, fmt.Errorf("transport: topic %d bytes exceeds limit %d", len(msg.Topic), MaxAddrLen)
	}
	if len(msg.Payload) > MaxAppPayload {
		return nil, fmt.Errorf("transport: payload %d bytes exceeds limit %d", len(msg.Payload), MaxAppPayload)
	}
	kind, flags := byte(kindApp), byte(0)
	if reply {
		kind = kindAppReply
	} else if msg.WantReply {
		flags = 1
	}
	size := 3 + 2 + len(msg.From) + 2 + len(msg.Topic) + 4 + len(msg.Payload)
	out := dst
	if need := len(out) + size; cap(out) < need {
		grown := make([]byte, len(out), need)
		copy(grown, out)
		out = grown
	}
	out = append(out, codecMagic, kind, flags)
	out = appendString(out, msg.From)
	out = appendString(out, msg.Topic)
	out = binary.BigEndian.AppendUint32(out, uint32(len(msg.Payload)))
	out = append(out, msg.Payload...)
	return out, nil
}

// DecodeAppMessage parses an app frame produced by AppendAppMessage.
// isRequest distinguishes the app-request kind from the app-reply kind.
// The returned payload aliases frame and is only valid while frame is; a
// non-nil interner deduplicates the from and topic strings.
func DecodeAppMessage(frame []byte, intern *Interner) (msg AppMessage, isRequest bool, err error) {
	r := reader{buf: frame, intern: intern}
	magic, err := r.byte()
	if err != nil {
		return msg, false, err
	}
	if magic != codecMagic {
		return msg, false, fmt.Errorf("transport: bad magic 0x%02X", magic)
	}
	kind, err := r.byte()
	if err != nil {
		return msg, false, err
	}
	flags, err := r.byte()
	if err != nil {
		return msg, false, err
	}
	from, err := r.str()
	if err != nil {
		return msg, false, err
	}
	topic, err := r.str()
	if err != nil {
		return msg, false, err
	}
	plen, err := r.u32()
	if err != nil {
		return msg, false, err
	}
	if plen > MaxAppPayload {
		return msg, false, fmt.Errorf("transport: payload length %d exceeds limit %d", plen, MaxAppPayload)
	}
	if r.rem() != int(plen) {
		return msg, false, fmt.Errorf("transport: payload length %d with %d bytes remaining", plen, r.rem())
	}
	payload := r.buf[r.pos:]
	msg = AppMessage{From: from, Topic: topic, Payload: payload}
	switch kind {
	case kindApp:
		if flags&^1 != 0 {
			return AppMessage{}, false, fmt.Errorf("transport: unknown app flags 0x%02X", flags)
		}
		msg.WantReply = flags&1 != 0
		return msg, true, nil
	case kindAppReply:
		if flags != 0 {
			return AppMessage{}, false, fmt.Errorf("transport: unknown app reply flags 0x%02X", flags)
		}
		return msg, false, nil
	default:
		return AppMessage{}, false, fmt.Errorf("transport: unknown app message kind %d", kind)
	}
}

// isAppFrame peeks at a raw frame's kind byte so serve loops can route it
// to the app path before the gossip decoder (which rejects app kinds).
func isAppFrame(frame []byte) bool {
	return len(frame) >= 2 && frame[0] == codecMagic &&
		(frame[1] == kindApp || frame[1] == kindAppReply)
}

// appHandlerBox holds an endpoint's current app handler, swappable while
// serve loops are live — the app-path analogue of limitsBox.
type appHandlerBox struct {
	v atomic.Pointer[AppHandler]
}

func (b *appHandlerBox) store(h AppHandler) { b.v.Store(&h) }

func (b *appHandlerBox) load() AppHandler {
	if p := b.v.Load(); p != nil {
		return *p
	}
	return nil
}
