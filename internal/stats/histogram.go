package stats

import (
	"fmt"
	"sort"
	"strings"
)

// FreqTable is a sorted value -> count frequency table, the exact form of
// the paper's Figure 4 degree distributions (plotted on log-log axes).
type FreqTable struct {
	Values []int // sorted ascending
	Counts []int // Counts[i] is the frequency of Values[i]
}

// NewFreqTable tallies the given integer observations.
func NewFreqTable(observations []int) FreqTable {
	m := make(map[int]int)
	for _, o := range observations {
		m[o]++
	}
	t := FreqTable{
		Values: make([]int, 0, len(m)),
		Counts: make([]int, 0, len(m)),
	}
	for v := range m {
		t.Values = append(t.Values, v)
	}
	sort.Ints(t.Values)
	for _, v := range t.Values {
		t.Counts = append(t.Counts, m[v])
	}
	return t
}

// Total returns the number of observations tallied.
func (t FreqTable) Total() int {
	sum := 0
	for _, c := range t.Counts {
		sum += c
	}
	return sum
}

// Max returns the value with the highest frequency (ties broken toward
// the smaller value) and its count. It returns (0,0) for an empty table.
func (t FreqTable) Max() (value, count int) {
	for i, c := range t.Counts {
		if c > count {
			value, count = t.Values[i], c
		}
	}
	return value, count
}

// TailWeight returns the fraction of observations strictly greater than
// threshold — a scalar proxy for how heavy the upper tail of a degree
// distribution is.
func (t FreqTable) TailWeight(threshold int) float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	tail := 0
	for i, v := range t.Values {
		if v > threshold {
			tail += t.Counts[i]
		}
	}
	return float64(tail) / float64(total)
}

// String renders "value:count" pairs separated by spaces.
func (t FreqTable) String() string {
	var b strings.Builder
	for i, v := range t.Values {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", v, t.Counts[i])
	}
	return b.String()
}
