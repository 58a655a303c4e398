package core

import (
	"fmt"
	"strings"
)

// Protocol is one point of the paper's design space: a 3-tuple
// (peer selection, view selection, view propagation). The paper writes
// these as e.g. (rand,head,pushpull).
type Protocol struct {
	PeerSel PeerSelection
	ViewSel ViewSelection
	Prop    Propagation
}

// Named protocol instances from the paper.
var (
	// Newscast is the peer sampling component of the Newscast protocol,
	// (rand,head,pushpull).
	Newscast = Protocol{PeerSel: PeerRand, ViewSel: ViewHead, Prop: PushPull}
	// Lpbcast is the peer sampling component of lightweight probabilistic
	// broadcast, (rand,rand,push).
	Lpbcast = Protocol{PeerSel: PeerRand, ViewSel: ViewRand, Prop: Push}
)

// String renders the tuple in the paper's notation, e.g.
// "(rand,head,pushpull)".
func (p Protocol) String() string {
	return fmt.Sprintf("(%s,%s,%s)", p.PeerSel, p.ViewSel, p.Prop)
}

// Valid reports whether all three dimensions hold defined policies.
func (p Protocol) Valid() bool {
	return p.PeerSel.Valid() && p.ViewSel.Valid() && p.Prop.Valid()
}

// ParseProtocol parses the paper's tuple notation. Surrounding parentheses
// and spaces are optional: "(tail, head, push)" and "tail,head,push" are
// both accepted.
func ParseProtocol(s string) (Protocol, error) {
	t := strings.TrimSpace(s)
	t = strings.TrimPrefix(t, "(")
	t = strings.TrimSuffix(t, ")")
	parts := strings.Split(t, ",")
	if len(parts) != 3 {
		return Protocol{}, fmt.Errorf("core: protocol %q: want 3 comma-separated policies, got %d", s, len(parts))
	}
	ps, err := ParsePeerSelection(strings.TrimSpace(parts[0]))
	if err != nil {
		return Protocol{}, fmt.Errorf("core: protocol %q: %w", s, err)
	}
	vs, err := ParseViewSelection(strings.TrimSpace(parts[1]))
	if err != nil {
		return Protocol{}, fmt.Errorf("core: protocol %q: %w", s, err)
	}
	vp, err := ParsePropagation(strings.TrimSpace(parts[2]))
	if err != nil {
		return Protocol{}, fmt.Errorf("core: protocol %q: %w", s, err)
	}
	return Protocol{PeerSel: ps, ViewSel: vs, Prop: vp}, nil
}

// AllProtocols returns the full 27-element design space in a fixed order
// (peer selection varying slowest, propagation fastest).
func AllProtocols() []Protocol {
	out := make([]Protocol, 0, 27)
	for _, ps := range []PeerSelection{PeerRand, PeerHead, PeerTail} {
		for _, vs := range []ViewSelection{ViewRand, ViewHead, ViewTail} {
			for _, vp := range []Propagation{Push, Pull, PushPull} {
				out = append(out, Protocol{PeerSel: ps, ViewSel: vs, Prop: vp})
			}
		}
	}
	return out
}

// StudiedProtocols returns the eight protocols retained by the paper after
// excluding (head,*,*), (*,tail,*) and (*,*,pull) (Section 4.3), in the
// order used by the paper's figures: push variants first within each view
// selection group.
func StudiedProtocols() []Protocol {
	out := make([]Protocol, 0, 8)
	for _, vs := range []ViewSelection{ViewRand, ViewHead} {
		for _, ps := range []PeerSelection{PeerRand, PeerTail} {
			for _, vp := range []Propagation{Push, PushPull} {
				out = append(out, Protocol{PeerSel: ps, ViewSel: vs, Prop: vp})
			}
		}
	}
	return out
}
