package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownValues(t *testing.T) {
	t.Parallel()
	xs := []float64{4, 1, 3, 2, 5}
	s := Summarize(xs)
	if s.N != 5 {
		t.Errorf("N = %d, want 5", s.N)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Errorf("min/max = %v/%v, want 1/5", s.Min, s.Max)
	}
	if s.Mean != 3 {
		t.Errorf("mean = %v, want 3", s.Mean)
	}
	if s.Median != 3 {
		t.Errorf("median = %v, want 3", s.Median)
	}
	wantSD := math.Sqrt(2) // population stddev of 1..5
	if math.Abs(s.Stddev-wantSD) > 1e-12 {
		t.Errorf("stddev = %v, want %v", s.Stddev, wantSD)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	t.Parallel()
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v, want zero value", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	t.Parallel()
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	t.Parallel()
	xs := []float64{10, 20, 30, 40}
	if got := Quantile(xs, 0); got != 10 {
		t.Errorf("q0 = %v, want 10", got)
	}
	if got := Quantile(xs, 1); got != 40 {
		t.Errorf("q1 = %v, want 40", got)
	}
	if got := Quantile(xs, 0.5); got != 25 {
		t.Errorf("median = %v, want 25 (interpolated)", got)
	}
}

func TestQuantileSingleElement(t *testing.T) {
	t.Parallel()
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of singleton = %v, want 7", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"empty", func() { Quantile(nil, 0.5) }},
		{"below", func() { Quantile([]float64{1}, -0.1) }},
		{"above", func() { Quantile([]float64{1}, 1.1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.fn()
		})
	}
}

// Property: the quantile is always within [min, max] and monotone in q.
func TestQuantileProperty(t *testing.T) {
	t.Parallel()
	f := func(raw []float64, qa, qb float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		frac := func(x float64) float64 { return math.Abs(x - math.Trunc(x)) }
		qa, qb = frac(qa), frac(qb)
		if qa > qb {
			qa, qb = qb, qa
		}
		lo, hi := slices.Min(xs), slices.Max(xs)
		va, vb := Quantile(xs, qa), Quantile(xs, qb)
		return va >= lo && vb <= hi && va <= vb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	t.Parallel()
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v, want 4", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}
