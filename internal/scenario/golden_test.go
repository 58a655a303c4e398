package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current output")

// goldenSeed fixes the RNG streams of every pinned simulation.
const goldenSeed = 1

// TestSimulatedGoldens pins every simulated experiment's rendered table
// and CSV files byte for byte at the tiny scale, so a refactor of the
// drivers cannot move a number unnoticed. Regenerate the files only for an
// intended output change:
//
//	go test ./internal/scenario -run TestSimulatedGoldens -update
func TestSimulatedGoldens(t *testing.T) {
	for _, def := range All() {
		if def.Live {
			continue
		}
		t.Run(def.ID, func(t *testing.T) {
			res, err := def.Run(tiny, goldenSeed, LiveEnv{})
			if err != nil {
				t.Fatal(err)
			}
			files := map[string]string{def.ID + ".txt": res.Render()}
			if c, ok := res.(CSVer); ok {
				for stem, content := range c.CSV() {
					files[stem+".csv"] = content
				}
			}
			for name, got := range files {
				path := filepath.Join("testdata", name)
				if *update {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create it)", err)
				}
				if got != string(want) {
					t.Errorf("%s differs from its golden:\n--- got\n%s\n--- want\n%s", name, got, want)
				}
			}
		})
	}
}

// TestSimulatedDefsRejectInvalidScale checks that every simulated Def
// reports an invalid Scale as an error from Run instead of panicking.
func TestSimulatedDefsRejectInvalidScale(t *testing.T) {
	bad := tiny
	bad.ViewSize = bad.N // a view as large as the network
	for _, def := range All() {
		if def.Live {
			continue
		}
		t.Run(def.ID, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Run panicked: %v", r)
				}
			}()
			if _, err := def.Run(bad, goldenSeed, LiveEnv{}); err == nil {
				t.Fatal("Run accepted an invalid Scale")
			}
		})
	}
}
