package scenario

import (
	"fmt"
	"math"
	"strings"

	"peersampling/internal/core"
	"peersampling/internal/stats"
)

// AutocorrResult holds the degree autocorrelation of one protocol.
type AutocorrResult struct {
	Protocol core.Protocol
	// Lags[k] is the autocorrelation at lag k (Lags[0] == 1).
	Lags []float64
	// OutsideBand is the fraction of lags 1..max whose autocorrelation
	// falls outside the 99% confidence band of an i.i.d. series.
	OutsideBand float64
}

// Figure5Result reproduces the paper's Figure 5: the autocorrelation of
// the degree time series of a fixed random node, for the four rand-peer
// protocols, with the 99% confidence band.
type Figure5Result struct {
	Scale   Scale
	MaxLag  int
	Band    float64 // half-width of the 99% band
	Results []AutocorrResult
}

// Render implements Result.
func (r *Figure5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 (degree autocorrelation over %d cycles, lags to %d, 99%% band ±%.4f)\n",
		r.Scale.Cycles, r.MaxLag, r.Band)
	lagCols := []int{1, 2, 5, 10, 20, 40}
	header := []string{"protocol"}
	for _, l := range lagCols {
		header = append(header, fmt.Sprintf("r%d", l))
	}
	header = append(header, "frac outside band")
	tb := newTable(header...)
	for _, res := range r.Results {
		row := []string{res.Protocol.String()}
		for _, l := range lagCols {
			if l < len(res.Lags) {
				row = append(row, f3(res.Lags[l]))
			} else {
				row = append(row, "-")
			}
		}
		row = append(row, f3(res.OutsideBand))
		tb.addRow(row...)
	}
	b.WriteString(tb.String())
	return b.String()
}

// RunFigure5 reproduces Figure 5. The paper traces a single fixed random
// node; to keep the scaled-down reproduction stable we trace a handful of
// nodes and average their autocorrelation functions.
func RunFigure5(sc Scale, seed uint64) *Figure5Result {
	protos := figure5Protocols()
	maxLag := min(sc.Cycles/2, 150) // the paper's x axis ends at 150
	res := &Figure5Result{
		Scale:   sc,
		MaxLag:  maxLag,
		Band:    stats.ConfidenceBand(sc.Cycles, stats.Z99),
		Results: make([]AutocorrResult, len(protos)),
	}
	const tracedForAutocorr = 8
	forEachPar(len(protos), func(pi int) {
		series, _ := degreeTrace(protos[pi], sc, mix(seed, 5000+pi), tracedForAutocorr, sc.Cycles)
		avg := make([]float64, maxLag+1)
		for _, s := range series {
			r := stats.Autocorrelation(s, maxLag)
			for k := range avg {
				avg[k] += r[k] / float64(len(series))
			}
		}
		outside := 0
		for _, rk := range avg[1:] {
			if math.Abs(rk) > res.Band {
				outside++
			}
		}
		res.Results[pi] = AutocorrResult{
			Protocol:    protos[pi],
			Lags:        avg,
			OutsideBand: float64(outside) / float64(maxLag),
		}
	})
	return res
}
