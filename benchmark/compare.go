package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
)

// disagreement is how far two readings of one metric are apart, as a
// share of the better of the two — the most either could be said to have
// worsened relative to the other.
func disagreement(a, b float64) float64 {
	lo, hi := min(a, b), max(a, b)
	if lo <= 0 {
		return 0
	}
	return (hi - lo) / lo
}

// worsening is how much b is worse than a, as a share of a; negative when
// b is better.
func worsening(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if spec.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck shows that two sets of runs of the same code agree within the
// benchmark's own bounds: the untraced pass twice back to back, the
// second in reverse workload order, then once more on the held-out seed.
func selfCheck(cfg runConfig, outDir string) error {
	var forward []string
	for _, w := range workloadSpecs {
		forward = append(forward, w.name)
	}
	reverse := slices.Clone(forward)
	slices.Reverse(reverse)
	held := cfg
	held.seed = heldOutSeed

	passes := []struct {
		label string
		names []string
		cfg   runConfig
	}{
		{"A", forward, cfg},
		{"B (reverse order)", reverse, cfg},
		{fmt.Sprintf("C (held-out seed %d)", heldOutSeed), forward, held},
	}
	byPass := make([]map[string]result, len(passes))
	for i, p := range passes {
		fmt.Printf("\n#### selfcheck pass %s\n", p.label)
		results, err := runPass(p.names, p.cfg, false, outDir)
		if err != nil {
			return err
		}
		byPass[i] = map[string]result{}
		for _, r := range results {
			byPass[i][r.Workload] = r
		}
	}

	fmt.Printf("\n#### selfcheck: A vs B (same seed), A vs C (held-out seed); disagreement as a share of the better reading\n")
	fmt.Printf("%-15s %-14s %14s %14s %14s %8s %8s %6s\n", "workload", "metric", "A", "B", "C", "A~B", "A~C", "bound")
	failedOps, beyond, incorrect := 0, 0, 0
	for _, name := range forward {
		a, b, c := byPass[0][name], byPass[1][name], byPass[2][name]
		for _, r := range []result{a, b, c} {
			failedOps += r.Failed
			if !r.Correct {
				incorrect++
			}
		}
		for _, spec := range endToEndSpecs {
			va, vb, vc := a.Metrics[spec.name].Value, b.Metrics[spec.name].Value, c.Metrics[spec.name].Value
			ab, ac := disagreement(va, vb), disagreement(va, vc)
			flag := ""
			if ab > spec.bound || ac > spec.bound {
				flag = "  BEYOND BOUND"
				beyond++
			}
			fmt.Printf("%-15s %-14s %14.4f %14.4f %14.4f %7.1f%% %7.1f%% %5.0f%%%s\n",
				name, spec.name, va, vb, vc, 100*ab, 100*ac, 100*spec.bound, flag)
		}
	}
	fmt.Printf("failed operations over all passes: %d\n", failedOps)
	switch {
	case incorrect > 0:
		return fmt.Errorf("selfcheck: %d runs failed a correctness check", incorrect)
	case beyond > 0:
		return fmt.Errorf("selfcheck: %d workload x metric pairs disagree by more than their bound", beyond)
	}
	return nil
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles sets the results of two files side by side, the first as
// the baseline, and fails if an end-to-end metric worsened beyond its
// bound. It refuses files measured on different machines.
func compareFiles(basePath, newPath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	next, err := readResults(newPath)
	if err != nil {
		return err
	}
	if err := base.Env.comparable(next.Env); err != nil {
		return fmt.Errorf("refusing to compare %s with %s: %w", basePath, newPath, err)
	}
	bounds := map[string]metricSpec{}
	for _, spec := range endToEndSpecs {
		bounds[spec.name] = spec
	}
	regressions, compared := 0, 0
	for _, a := range base.Results {
		for _, b := range next.Results {
			if a.Workload != b.Workload || a.Traced != b.Traced {
				continue
			}
			compared++
			fmt.Printf("\n== %s (traced=%v): failed ops %d -> %d\n", a.Workload, a.Traced, a.Failed, b.Failed)
			names := make([]string, 0, len(a.Metrics))
			for name := range a.Metrics {
				names = append(names, name)
			}
			slices.Sort(names)
			for _, name := range names {
				va, vb := a.Metrics[name].Value, b.Metrics[name].Value
				if va == 0 && vb == 0 {
					continue
				}
				line := fmt.Sprintf("   %-34s %14.4f -> %14.4f %s", name, va, vb, a.Metrics[name].Unit)
				if spec, ok := bounds[name]; ok {
					w := worsening(spec, va, vb)
					line += fmt.Sprintf("  worse by %+.1f%% (bound %.0f%%)", 100*w, 100*spec.bound)
					if w > spec.bound {
						line += "  REGRESSION"
						regressions++
					}
				}
				fmt.Println(line)
			}
		}
	}
	switch {
	case compared == 0:
		return errors.New("the two files share no workload and pass")
	case regressions > 0:
		return fmt.Errorf("%d end-to-end metrics worsened beyond their bound", regressions)
	}
	return nil
}
