package main

import (
	"strings"
	"testing"
)

func TestCheckView(t *testing.T) {
	exists := func(a string) bool { return strings.HasPrefix(a, "n") }
	for _, tc := range []struct {
		name string
		view []string
		full bool
		want string // substring of the error, "" for none
	}{
		{"valid partial", []string{"n1", "n2"}, false, ""},
		{"valid full", []string{"n1", "n2", "n3"}, true, ""},
		{"self entry", []string{"n1", "n0"}, false, "contains its owner"},
		{"duplicate", []string{"n1", "n2", "n1"}, false, "twice"},
		{"over capacity", []string{"n1", "n2", "n3", "n4"}, false, "capacity 3"},
		{"never existed", []string{"n1", "ghost"}, false, "never existed"},
		{"not full", []string{"n1", "n2"}, true, "want a full view"},
	} {
		err := checkView("n0", tc.view, 3, tc.full, exists)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestComponents(t *testing.T) {
	ring := func(i int) []int32 { return []int32{int32((i + 1) % 6)} }
	if got := components(6, ring); got != 1 {
		t.Errorf("a ring has %d components, want 1", got)
	}
	halves := func(i int) []int32 { return []int32{int32(i/3*3 + (i+1)%3)} }
	if got := components(6, halves); got != 2 {
		t.Errorf("two triangles have %d components, want 2", got)
	}
}
