package scenario

import (
	"strings"
	"testing"

	"peersampling/internal/core"
)

func TestRunUniformityShape(t *testing.T) {
	res := RunUniformity(tiny, 10)
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d want 8", len(res.Rows))
	}
	// The calibration control must look uniform.
	if res.Control.ChiSquare > 2 || res.Control.NormalizedEntropy < 0.95 {
		t.Errorf("control not uniform: %+v", res.Control)
	}
	var randChi, headChi float64
	randN, headN := 0, 0
	for _, row := range res.Rows {
		// The paper's headline: every gossip implementation deviates from
		// uniform sampling. The chi-square statistic must exceed the
		// control's clearly.
		if row.ChiSquare < res.Control.ChiSquare {
			t.Errorf("%v chi2 %v below control %v", row.Protocol, row.ChiSquare, res.Control.ChiSquare)
		}
		if row.NormalizedEntropy <= 0 || row.NormalizedEntropy > 1 {
			t.Errorf("%v entropy out of range: %v", row.Protocol, row.NormalizedEntropy)
		}
		if row.MaxOverMean < 1 {
			t.Errorf("%v hotspot factor below 1: %v", row.Protocol, row.MaxOverMean)
		}
		switch row.Protocol.ViewSel {
		case core.ViewRand:
			randChi += row.ChiSquare
			randN++
		case core.ViewHead:
			headChi += row.ChiSquare
			headN++
		}
	}
	// Rand view selection's unbalanced in-degrees bias sampling much more
	// than head's narrow distribution.
	if randChi/float64(randN) <= headChi/float64(headN) {
		t.Errorf("rand view selection chi2 %v not above head %v",
			randChi/float64(randN), headChi/float64(headN))
	}
	if !strings.Contains(res.Render(), "uniform control") {
		t.Error("render missing control row")
	}
}

func TestRunChurnShape(t *testing.T) {
	res := RunChurn(tiny, 11)
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d want 8", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.AvgDeadLinks < 0 || row.AvgDeadLinks > float64(tiny.ViewSize) {
			t.Errorf("%v dead links per view = %v out of range", row.Protocol, row.AvgDeadLinks)
		}
		if row.InvisibleFraction < 0 || row.InvisibleFraction > 1 {
			t.Errorf("%v invisible fraction = %v", row.Protocol, row.InvisibleFraction)
		}
		// Newscast-style (rand,head,pushpull) must stay connected and
		// carry few dead links under mild churn; push-only variants may
		// legitimately fall apart (the paper's Section 8: push cannot
		// serve joining nodes).
		if row.Protocol == core.Newscast {
			if !row.Connected {
				t.Errorf("%v disconnected under 1%% churn", row.Protocol)
			}
			if row.AvgDeadLinks > float64(tiny.ViewSize)/2 {
				t.Errorf("%v carries %v dead links per view under churn", row.Protocol, row.AvgDeadLinks)
			}
		}
	}
	// Rand view selection accumulates more dead links than head (slow
	// flushing, Figure 7's mechanism, now in steady state).
	var randDead, headDead float64
	var randN, headN int
	for _, row := range res.Rows {
		switch row.Protocol.ViewSel {
		case core.ViewRand:
			randDead += row.AvgDeadLinks
			randN++
		case core.ViewHead:
			headDead += row.AvgDeadLinks
			headN++
		}
	}
	if randDead/float64(randN) <= headDead/float64(headN) {
		t.Errorf("rand view selection dead links %v not above head %v",
			randDead/float64(randN), headDead/float64(headN))
	}
	if !strings.Contains(res.Render(), "churn") {
		t.Error("render missing title")
	}
}

func TestRegistryIncludesExtensions(t *testing.T) {
	if _, ok := Find("uniformity"); !ok {
		t.Error("uniformity not registered")
	}
	if _, ok := Find("churn"); !ok {
		t.Error("churn not registered")
	}
	if _, ok := Find("ablation"); !ok {
		t.Error("ablation not registered")
	}
}

func TestRunAblationShape(t *testing.T) {
	res := RunAblation(tiny, 12)
	if len(res.Rows) == 0 {
		t.Fatal("no ablation rows (N too small for every candidate c)")
	}
	for _, row := range res.Rows {
		if row.ViewSize > tiny.N/8 {
			t.Errorf("c=%d exceeds N/8", row.ViewSize)
		}
		if row.Clustering < 0 || row.Clustering > 1 {
			t.Errorf("c=%d clustering %v out of range", row.ViewSize, row.Clustering)
		}
		if row.Connected && row.PathLen < 1 {
			t.Errorf("c=%d implausible path length %v", row.ViewSize, row.PathLen)
		}
	}
	// Larger views heal at least as fast (half-life non-increasing,
	// allowing one cycle of noise) and lower the path length.
	for i := 1; i < len(res.Rows); i++ {
		a, b := res.Rows[i-1], res.Rows[i]
		if a.HealHalfLife >= 0 && b.HealHalfLife >= 0 && b.HealHalfLife > a.HealHalfLife+1 {
			t.Errorf("half-life grew with c: c=%d -> %d, c=%d -> %d",
				a.ViewSize, a.HealHalfLife, b.ViewSize, b.HealHalfLife)
		}
	}
	if !strings.Contains(res.Render(), "View size ablation") {
		t.Error("render missing title")
	}
}
