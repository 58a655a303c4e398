package core

import (
	"testing"
)

func TestProtocolString(t *testing.T) {
	if got, want := Newscast.String(), "(rand,head,pushpull)"; got != want {
		t.Errorf("Newscast.String() = %q want %q", got, want)
	}
	if got, want := Lpbcast.String(), "(rand,rand,push)"; got != want {
		t.Errorf("Lpbcast.String() = %q want %q", got, want)
	}
}

func TestParseProtocolRoundTrip(t *testing.T) {
	for _, p := range AllProtocols() {
		got, err := ParseProtocol(p.String())
		if err != nil {
			t.Fatalf("ParseProtocol(%q): %v", p.String(), err)
		}
		if got != p {
			t.Errorf("round trip %v -> %v", p, got)
		}
	}
}

func TestParseProtocolLenient(t *testing.T) {
	for _, s := range []string{"tail,head,push", "( tail , head , push )", " (tail,head,push)"} {
		p, err := ParseProtocol(s)
		if err != nil {
			t.Fatalf("ParseProtocol(%q): %v", s, err)
		}
		want := Protocol{PeerSel: PeerTail, ViewSel: ViewHead, Prop: Push}
		if p != want {
			t.Errorf("ParseProtocol(%q) = %v want %v", s, p, want)
		}
	}
}

func TestParseProtocolErrors(t *testing.T) {
	for _, s := range []string{"", "rand,head", "rand,head,push,push", "x,head,push", "rand,y,push", "rand,head,z"} {
		if _, err := ParseProtocol(s); err == nil {
			t.Errorf("ParseProtocol(%q) succeeded, want error", s)
		}
	}
}

func TestAllProtocols(t *testing.T) {
	all := AllProtocols()
	if len(all) != 27 {
		t.Fatalf("len = %d want 27", len(all))
	}
	seen := map[Protocol]bool{}
	for _, p := range all {
		if !p.Valid() {
			t.Errorf("invalid protocol %v", p)
		}
		if seen[p] {
			t.Errorf("duplicate protocol %v", p)
		}
		seen[p] = true
	}
}

func TestStudiedProtocols(t *testing.T) {
	studied := StudiedProtocols()
	if len(studied) != 8 {
		t.Fatalf("len = %d want 8", len(studied))
	}
	if studied[0].ViewSel != ViewRand || studied[len(studied)-1].ViewSel != ViewHead {
		t.Error("unexpected ordering of studied protocols")
	}
}

// TestExclusionRules checks StudiedProtocols against Section 4.3: the
// studied tuples are the 27 less (head,*,*), which clusters severely,
// (*,tail,*), which cannot absorb joining nodes, and (*,*,pull), which
// collapses to a star.
func TestExclusionRules(t *testing.T) {
	studied := map[Protocol]bool{}
	for _, p := range StudiedProtocols() {
		studied[p] = true
	}
	for _, p := range AllProtocols() {
		excluded := p.PeerSel == PeerHead || p.ViewSel == ViewTail || p.Prop == Pull
		if excluded == studied[p] {
			t.Errorf("%v: excluded %v, studied %v", p, excluded, studied[p])
		}
	}
}

func TestProtocolValid(t *testing.T) {
	if (Protocol{}).Valid() {
		t.Error("zero protocol reported valid")
	}
	if !Newscast.Valid() {
		t.Error("Newscast reported invalid")
	}
}
