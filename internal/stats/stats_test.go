package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almost(got, 5, 1e-12) {
		t.Errorf("mean = %v want 5", got)
	}
	// Sample variance with n-1: sum sq dev = 32, /7.
	if got := Variance(xs); !almost(got, 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v want %v", got, 32.0/7.0)
	}
	if got := StdDev(xs); !almost(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("stddev = %v", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("empty/single-sample edge cases wrong")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || !almost(s.Mean, 2, 1e-12) {
		t.Errorf("summary = %+v", s)
	}
	if !almost(s.Var, 1, 1e-12) || !almost(s.StdDev, 1, 1e-12) {
		t.Errorf("variance = %v stddev = %v want 1", s.Var, s.StdDev)
	}
	if z := Summarize(nil); z != (Summary{}) {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Quantile(xs, 0); got != 10 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 40 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); !almost(got, 25, 1e-12) {
		t.Errorf("median = %v want 25", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile != 0")
	}
}

func TestAutocorrelationBasics(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	series := make([]float64, 500)
	for i := range series {
		series[i] = rng.Float64()
	}
	r := Autocorrelation(series, 20)
	if !almost(r[0], 1, 1e-12) {
		t.Errorf("r0 = %v want 1", r[0])
	}
	band := ConfidenceBand(len(series), Z99)
	outside := 0
	for _, rk := range r[1:] {
		if math.Abs(rk) > band {
			outside++
		}
	}
	if outside > 2 {
		t.Errorf("%d of 20 lags outside 99%% band for white noise", outside)
	}
}

func TestAutocorrelationPeriodicSeries(t *testing.T) {
	// Period-10 sine: strong positive correlation at lag 10, negative at 5.
	series := make([]float64, 300)
	for i := range series {
		series[i] = math.Sin(2 * math.Pi * float64(i) / 10)
	}
	r := Autocorrelation(series, 12)
	if r[10] < 0.9 {
		t.Errorf("r10 = %v want ~1 for period-10 series", r[10])
	}
	if r[5] > -0.9 {
		t.Errorf("r5 = %v want ~-1 for period-10 series", r[5])
	}
}

func TestAutocorrelationDegenerate(t *testing.T) {
	r := Autocorrelation([]float64{5, 5, 5, 5}, 3)
	for lag, v := range r {
		if v != 0 {
			t.Errorf("constant series r%d = %v want 0", lag, v)
		}
	}
	r = Autocorrelation(nil, 2)
	if len(r) != 3 || r[0] != 0 {
		t.Errorf("empty series result = %v", r)
	}
	// Lags beyond series length are 0.
	r = Autocorrelation([]float64{1, 2}, 5)
	if r[3] != 0 || r[5] != 0 {
		t.Errorf("overlong lags = %v", r)
	}
}

func TestAutocorrelationBounded(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 3 {
			return true
		}
		series := make([]float64, len(raw))
		for i, v := range raw {
			series[i] = float64(v)
		}
		r := Autocorrelation(series, len(series)-1)
		for _, rk := range r {
			// The paper's estimator is bounded by 1 in absolute value
			// (Cauchy-Schwarz, with the truncated numerator only helping).
			if rk > 1+1e-9 || rk < -1-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConfidenceBand(t *testing.T) {
	if got := ConfidenceBand(300, Z99); !almost(got, 2.576/math.Sqrt(300), 1e-12) {
		t.Errorf("band = %v", got)
	}
	if !math.IsInf(ConfidenceBand(0, Z99), 1) {
		t.Error("band for k=0 not infinite")
	}
}

func TestFreqTable(t *testing.T) {
	ft := NewFreqTable([]int{3, 1, 3, 2, 3, 1})
	if ft.Total() != 6 {
		t.Errorf("total = %d", ft.Total())
	}
	if !slices.Equal(ft.Values, []int{1, 2, 3}) || !slices.Equal(ft.Counts, []int{2, 1, 3}) {
		t.Errorf("values %v, counts %v", ft.Values, ft.Counts)
	}
	if v, c := ft.Max(); v != 3 || c != 3 {
		t.Errorf("max = %d,%d", v, c)
	}
	if got := ft.TailWeight(2); !almost(got, 0.5, 1e-12) {
		t.Errorf("tail weight = %v want 0.5", got)
	}
	if got := ft.TailWeight(100); got != 0 {
		t.Errorf("tail weight beyond max = %v", got)
	}
	if ft.String() != "1:2 2:1 3:3" {
		t.Errorf("String = %q", ft.String())
	}
	empty := NewFreqTable(nil)
	if v, c := empty.Max(); v != 0 || c != 0 || empty.TailWeight(0) != 0 {
		t.Error("empty table edge cases wrong")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("deg")
	s.Append(0, 10)
	s.Append(5, 20)
	s.Append(6, 30)
	if s.Len() != 3 || s.Last() != 30 {
		t.Error("len/last wrong")
	}
	if v, ok := s.At(5); !ok || v != 20 {
		t.Errorf("At(5) = %v,%v", v, ok)
	}
	if _, ok := s.At(4); ok {
		t.Error("At(4) found phantom point")
	}
	if got := s.ConvergedValue(0.5); !almost(got, 25, 1e-12) {
		t.Errorf("converged = %v want 25", got)
	}
	if NewSeries("x").Last() != 0 || NewSeries("x").ConvergedValue(0.2) != 0 {
		t.Error("empty series edge cases wrong")
	}
}

func TestSeriesAppendOutOfOrderPanics(t *testing.T) {
	s := NewSeries("x")
	s.Append(3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order append did not panic")
		}
	}()
	s.Append(3, 2)
}
