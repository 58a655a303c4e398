package main

import "testing"

func TestCheckKill(t *testing.T) {
	for _, tc := range []struct {
		name           string
		kill           float64
		killAt, cycles int
		ok             bool
	}{
		{"no failure", 0, 0, 4, true},
		{"no failure ignores killat", 0, 9, 4, true},
		{"first cycle", 0.5, 1, 4, true},
		{"last cycle", 0.5, 4, 4, true},
		{"default killat", 0.5, 0, 4, false},
		{"killat past the run", 0.5, 5, 4, false},
		{"negative killat", 0.5, -1, 4, false},
		{"negative fraction", -0.1, 1, 4, false},
		{"whole network", 1, 1, 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkKill(tc.kill, tc.killAt, tc.cycles)
			if (err == nil) != tc.ok {
				t.Fatalf("checkKill(%v, %d, %d) = %v, want ok=%v", tc.kill, tc.killAt, tc.cycles, err, tc.ok)
			}
		})
	}
}
