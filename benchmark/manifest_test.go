package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repo root is the driver's copy of manifest.go;
// the two must name the same workloads and metrics, with the same units,
// directions and bounds.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(file.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in manifest.go", len(file.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		got := file.Workloads[i]
		if got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), manifest.go %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name, or a why of %d characters (limit 200)", w.name, len(w.why))
		}
	}
	if len(file.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in manifest.go", len(file.EndToEnd), len(endToEndSpecs))
	}
	for i, m := range endToEndSpecs {
		got := file.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound == nil || *got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, manifest.go %+v", i, got, m)
		}
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) || m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract's limits", m)
		}
	}
	if len(file.PerLayer) != len(perLayerSpecs) || len(perLayerSpecs) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in manifest.go (limit 128)", len(file.PerLayer), len(perLayerSpecs))
	}
	seen := map[string]bool{}
	for i, m := range perLayerSpecs {
		got := file.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != nil {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, manifest.go %+v", i, got, m)
		}
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) || seen[m.name] {
			t.Errorf("per-layer metric %+v breaks the contract's limits or repeats a name", m)
		}
		seen[m.name] = true
	}
	if file.RunSeconds < 5 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d: the windows must not go below 5 s", file.RunSeconds)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", file.Paths)
	}
}

func TestEveryWorkloadHasABuilder(t *testing.T) {
	for _, w := range workloadSpecs {
		if builders[w.name] == nil {
			t.Errorf("workload %s has no builder", w.name)
		}
	}
	if len(builders) != len(workloadSpecs) {
		t.Errorf("%d builders for %d workloads", len(builders), len(workloadSpecs))
	}
	if last := workloadSpecs[len(workloadSpecs)-1].name; last != "fleet_tcp" {
		t.Errorf("%s runs last; fleet_tcp must, it fills the TIME_WAIT table", last)
	}
}
