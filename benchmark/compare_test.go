package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareRefusesUnlikeMachines(t *testing.T) {
	base := envStamp{GOMAXPROCS: 2, CPUModel: "cpu A", WindowS: 8}
	for _, tc := range []struct {
		other envStamp
		want  string
	}{
		{envStamp{GOMAXPROCS: 2, CPUModel: "cpu A", WindowS: 8, Seed: 7, GitCommit: "abc"}, ""},
		{envStamp{GOMAXPROCS: 1, CPUModel: "cpu A", WindowS: 8}, "GOMAXPROCS"},
		{envStamp{GOMAXPROCS: 2, CPUModel: "cpu B", WindowS: 8}, "CPU model"},
		{envStamp{GOMAXPROCS: 2, CPUModel: "cpu A", WindowS: 5}, "window"},
	} {
		err := base.comparable(tc.other)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("unexpected refusal: %v", err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("error %v, want one naming %s", err, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, env envStamp, opsPerS float64) string {
		path := filepath.Join(dir, name)
		r := result{Workload: "fleet_pooled", Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"ops_per_s": {opsPerS, "op/s"}}}
		if err := writeJSON(path, resultFile{env, []result{r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	env := envStamp{GOMAXPROCS: 2, CPUModel: "cpu A", WindowS: 8}
	bound := endToEndSpecs[1].bound // ops_per_s
	base := write("base.json", env, 30_000)
	if err := compareFiles(base, write("same.json", env, 30_000*(1-bound/2))); err != nil {
		t.Errorf("half the bound slower was refused: %v", err)
	}
	if err := compareFiles(base, write("slow.json", env, 30_000*(1-bound-0.03))); err == nil {
		t.Error("slower than the bound allows, and passed")
	}
	other := env
	other.GOMAXPROCS = 8
	if err := compareFiles(base, write("other.json", other, 90_000)); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("files from unlike machines were compared: %v", err)
	}
	if _, err := os.Stat(base); err != nil {
		t.Fatal(err)
	}
}

func TestDisagreementAndWorsening(t *testing.T) {
	if got := disagreement(100, 110); got < 0.0999 || got > 0.1001 {
		t.Errorf("disagreement(100,110) = %v, want 0.1", got)
	}
	if disagreement(110, 100) != disagreement(100, 110) {
		t.Error("disagreement is not symmetric")
	}
	higher := metricSpec{better: "higher"}
	lower := metricSpec{better: "lower"}
	if got := worsening(higher, 100, 90); got < 0.0999 || got > 0.1001 {
		t.Errorf("throughput 100 -> 90 worsened by %v, want 0.1", got)
	}
	if got := worsening(lower, 100, 90); got > -0.0999 {
		t.Errorf("latency 100 -> 90 worsened by %v, want -0.1", got)
	}
}
