package stats

import "fmt"

// Series is a named per-cycle time series of a scalar overlay property,
// the unit of data behind every line in the paper's figures.
type Series struct {
	Name   string
	Cycles []int
	Values []float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series {
	return &Series{Name: name}
}

// Append records value at the given cycle. Cycles must be appended in
// strictly increasing order; Append panics otherwise, since out-of-order
// recording always indicates a driver bug.
func (s *Series) Append(cycle int, value float64) {
	if n := len(s.Cycles); n > 0 && cycle <= s.Cycles[n-1] {
		panic(fmt.Sprintf("stats: cycle %d appended after %d in series %q", cycle, s.Cycles[n-1], s.Name))
	}
	s.Cycles = append(s.Cycles, cycle)
	s.Values = append(s.Values, value)
}

// Len returns the number of recorded points.
func (s *Series) Len() int { return len(s.Cycles) }

// Last returns the most recent value, or 0 if the series is empty.
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// At returns the value recorded for the given cycle and whether one
// exists (binary search).
func (s *Series) At(cycle int) (float64, bool) {
	lo, hi := 0, len(s.Cycles)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Cycles[mid] < cycle {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.Cycles) && s.Cycles[lo] == cycle {
		return s.Values[lo], true
	}
	return 0, false
}

// ConvergedValue returns the mean over the final tail fraction of the
// series (e.g. 0.2 for the last 20% of points), a simple scalar summary
// of what a converged property plot settles at.
func (s *Series) ConvergedValue(tailFraction float64) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	start := int(float64(len(s.Values)) * (1 - tailFraction))
	if start < 0 {
		start = 0
	}
	if start >= len(s.Values) {
		start = len(s.Values) - 1
	}
	return Mean(s.Values[start:])
}
