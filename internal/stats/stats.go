// Package stats provides the summary statistics used throughout the
// measurement study: means, medians, percentiles, violin summaries of
// power distributions, and histograms of IO latency.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample set. It is the textual equivalent of one
// violin in the paper's Figure 2b.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	Stddev float64
	P1     float64
	P25    float64
	P75    float64
	P99    float64
}

// Summarize computes a Summary over xs. It returns the zero Summary for an
// empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	var sum, sq float64
	for _, v := range s {
		sum += v
		sq += v * v
	}
	n := float64(len(s))
	mean := sum / n
	variance := sq/n - mean*mean
	if variance < 0 {
		variance = 0 // guard against floating-point cancellation
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   mean,
		Median: QuantileSorted(s, 0.5),
		Stddev: math.Sqrt(variance),
		P1:     QuantileSorted(s, 0.01),
		P25:    QuantileSorted(s, 0.25),
		P75:    QuantileSorted(s, 0.75),
		P99:    QuantileSorted(s, 0.99),
	}
}

// String renders the summary on one line, suitable for experiment tables.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3f p25=%.3f med=%.3f mean=%.3f p75=%.3f p99=%.3f max=%.3f sd=%.3f",
		s.N, s.Min, s.P25, s.Median, s.Mean, s.P75, s.P99, s.Max, s.Stddev)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice or
// an out-of-range q.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile over a slice already sorted ascending: it
// neither copies nor sorts. It panics on an empty slice; q is not
// checked.
func QuantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
