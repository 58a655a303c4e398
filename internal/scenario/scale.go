// Package scenario contains the paper's experimental methodology: the
// three bootstrap scenarios (growing overlay, ring lattice, random
// topology), and one driver per table and figure of the evaluation
// section. Each driver returns a structured result that renders as a
// paper-shaped text table; cmd/experiments runs them all.
package scenario

import "fmt"

// Scale bundles the size parameters of a reproduction run. Full is the
// paper's configuration; Quick and Medium shrink the network (keeping the
// view size c = 30 and cycle counts, which the dynamics depend on) so that
// the suite runs in seconds or minutes while preserving every qualitative
// shape.
type Scale struct {
	Name string
	// N is the target network size (the paper uses 10^4).
	N int
	// ViewSize is the view capacity c (the paper uses 30).
	ViewSize int
	// Cycles is the main run length (the paper uses 300).
	Cycles int
	// GrowthPerCycle is the number of nodes joining per cycle in the
	// growing scenario; the growth phase always lasts N/GrowthPerCycle
	// cycles (100 in the paper).
	GrowthPerCycle int
	// Reps is the number of repetitions for Table 1 and Figure 6 (the
	// paper uses 100).
	Reps int
	// TracedNodes is the number of nodes whose degree is traced for
	// Table 2 (the paper uses 50).
	TracedNodes int
	// PathSources and ClusteringSample control metric estimation; zero
	// means exact.
	PathSources      int
	ClusteringSample int
	// MeasureEvery is the cycle stride between observations in the
	// dynamics figures.
	MeasureEvery int
}

// Predefined scales.
var (
	// Quick runs in a few seconds; used by the benchmark harness.
	Quick = Scale{
		Name: "quick", N: 500, ViewSize: 30, Cycles: 120,
		GrowthPerCycle: 5, Reps: 10, TracedNodes: 20,
		PathSources: 12, ClusteringSample: 150, MeasureEvery: 4,
	}
	// Medium runs in minutes and already matches the paper closely. The
	// growth rate stays at the paper's 100 joiners per cycle: Table 1's
	// partitioning phenomenon depends on the ratio of cohort size to view
	// size (100/30), not on the network size.
	Medium = Scale{
		Name: "medium", N: 2500, ViewSize: 30, Cycles: 300,
		GrowthPerCycle: 100, Reps: 30, TracedNodes: 50,
		PathSources: 16, ClusteringSample: 400, MeasureEvery: 5,
	}
	// Full is the paper's parameterisation (N = 10^4, c = 30, 300
	// cycles, 100 repetitions).
	Full = Scale{
		Name: "full", N: 10_000, ViewSize: 30, Cycles: 300,
		GrowthPerCycle: 100, Reps: 100, TracedNodes: 50,
		PathSources: 24, ClusteringSample: 600, MeasureEvery: 5,
	}
)

// ScaleByName returns the predefined scale with the given name.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "medium":
		return Medium, nil
	case "full":
		return Full, nil
	default:
		return Scale{}, fmt.Errorf("scenario: unknown scale %q (want quick, medium or full)", name)
	}
}

// GrowthCycles returns the length of the growth phase in the growing
// scenario.
func (s Scale) GrowthCycles() int {
	if s.GrowthPerCycle <= 0 {
		return 0
	}
	return (s.N + s.GrowthPerCycle - 1) / s.GrowthPerCycle
}

func (s Scale) validate() error {
	if s.N < 10 {
		return fmt.Errorf("scenario: N = %d too small", s.N)
	}
	if s.ViewSize <= 0 || s.ViewSize >= s.N {
		return fmt.Errorf("scenario: view size %d out of range for N = %d", s.ViewSize, s.N)
	}
	if s.Cycles <= 0 || s.Reps <= 0 || s.GrowthPerCycle <= 0 {
		return fmt.Errorf("scenario: non-positive run parameters: %+v", s)
	}
	if s.MeasureEvery <= 0 {
		return fmt.Errorf("scenario: MeasureEvery must be positive, got %d", s.MeasureEvery)
	}
	return nil
}
