package calib

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randSystem builds a random well-conditioned rows×cols system with
// entries in [-1, 1).
func randSystem(rng *rand.Rand, rows, cols int) [][]float64 {
	a := make([][]float64, rows)
	for i := range a {
		a[i] = make([]float64, cols)
		for j := range a[i] {
			a[i][j] = 2*rng.Float64() - 1
		}
	}
	return a
}

func matVec(a [][]float64, x []float64) []float64 {
	out := make([]float64, len(a))
	for i, row := range a {
		for j, v := range row {
			out[i] += v * x[j]
		}
	}
	return out
}

func residNorm(a [][]float64, x, b []float64) float64 {
	ax := matVec(a, x)
	var ss float64
	for i := range b {
		d := ax[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss)
}

// TestNNLSNonNegativity: every solution coordinate is >= 0, even when
// the unconstrained optimum wants negative coefficients.
func TestNNLSNonNegativity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		rows := 3 + rng.Intn(12)
		cols := 1 + rng.Intn(6)
		a := randSystem(rng, rows, cols)
		b := make([]float64, rows)
		for i := range b {
			b[i] = 2*rng.Float64() - 1 // arbitrary sign: pulls hard toward negative x
		}
		x, err := NNLS(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for j, v := range x {
			if v < 0 {
				t.Fatalf("trial %d: x[%d] = %v negative", trial, j, v)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("trial %d: x[%d] = %v not finite", trial, j, v)
			}
		}
	}
}

// TestNNLSBeatsClampedOLS: the NNLS residual is never worse than the
// naive alternative of solving unconstrained OLS and clamping negative
// coefficients to zero. This is the optimality property that justifies
// carrying an active-set solver instead of a one-liner.
func TestNNLSBeatsClampedOLS(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		rows := 6 + rng.Intn(10)
		cols := 2 + rng.Intn(4)
		a := randSystem(rng, rows, cols)
		b := make([]float64, rows)
		for i := range b {
			b[i] = 2*rng.Float64() - 1
		}
		x, err := NNLS(a, b)
		if err != nil {
			t.Fatalf("trial %d: NNLS: %v", trial, err)
		}
		clamped, err := ols(a, b)
		if err != nil {
			t.Fatalf("trial %d: OLS: %v", trial, err)
		}
		for j := range clamped {
			clamped[j] = max(clamped[j], 0)
		}
		rn, rc := residNorm(a, x, b), residNorm(a, clamped, b)
		if rn > rc*(1+1e-9)+1e-12 {
			t.Fatalf("trial %d: NNLS residual %v worse than clamped OLS %v", trial, rn, rc)
		}
	}
}

// TestNNLSExactRecovery: when b = A·x* with x* >= 0 (some coordinates
// exactly zero), the solver recovers x* to numerical precision.
func TestNNLSExactRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		rows := 8 + rng.Intn(10)
		cols := 2 + rng.Intn(4)
		a := randSystem(rng, rows, cols)
		truth := make([]float64, cols)
		for j := range truth {
			if rng.Intn(3) > 0 { // ~1/3 of coefficients held at zero
				truth[j] = rng.Float64() * 10
			}
		}
		b := matVec(a, truth)
		x, err := NNLS(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for j := range truth {
			if diff := math.Abs(x[j] - truth[j]); diff > 1e-6*(1+truth[j]) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, j, x[j], truth[j])
			}
		}
	}
}

// TestNNLSPermutationInvariance: permuting feature columns permutes the
// solution and nothing else — no column is privileged by solver order.
func TestNNLSPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		rows := 8 + rng.Intn(8)
		cols := 3 + rng.Intn(3)
		a := randSystem(rng, rows, cols)
		b := make([]float64, rows)
		for i := range b {
			b[i] = rng.Float64() * 5
		}
		base, err := NNLS(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		perm := rng.Perm(cols)
		pa := make([][]float64, rows)
		for i := range pa {
			pa[i] = make([]float64, cols)
			for j, p := range perm {
				pa[i][j] = a[i][p]
			}
		}
		px, err := NNLS(pa, b)
		if err != nil {
			t.Fatalf("trial %d: permuted: %v", trial, err)
		}
		for j, p := range perm {
			if diff := math.Abs(px[j] - base[p]); diff > 1e-8*(1+math.Abs(base[p])) {
				t.Fatalf("trial %d: permuted x[%d] = %v, want base x[%d] = %v",
					trial, j, px[j], p, base[p])
			}
		}
	}
}

// TestNNLSDeterministic: the same system solves to bit-identical output.
func TestNNLSDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSystem(rng, 12, 5)
	b := make([]float64, 12)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	x1, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := range x1 {
		if x1[j] != x2[j] {
			t.Fatalf("x[%d] differs across identical solves: %v vs %v", j, x1[j], x2[j])
		}
	}
}

// TestNNLSCollinearColumns: a duplicated column must not cycle the
// active set; the solution still satisfies the constraints and matches
// the single-column residual.
func TestNNLSCollinearColumns(t *testing.T) {
	a := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	b := []float64{1, 2, 3}
	x, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rn := residNorm(a, x, b); rn > 1e-9 {
		t.Fatalf("collinear system residual %v, want ~0", rn)
	}
	for j, v := range x {
		if v < 0 {
			t.Fatalf("x[%d] = %v negative", j, v)
		}
	}
}

// TestNNLSZeroColumn: an all-zero feature column gets coefficient zero.
func TestNNLSZeroColumn(t *testing.T) {
	a := [][]float64{{1, 0}, {2, 0}, {3, 0}}
	b := []float64{2, 4, 6}
	x, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-9 || x[1] != 0 {
		t.Fatalf("x = %v, want [2 0]", x)
	}
}

// TestNNLSScaleInvariance: the fit handles the real feature regime —
// columns spanning many orders of magnitude — without the small-scale
// column being squeezed out numerically.
func TestNNLSScaleInvariance(t *testing.T) {
	// bytes-scale column (~1e8) against a seconds-scale column (~1).
	a := [][]float64{
		{1e8, 1.0},
		{2e8, 1.5},
		{4e8, 3.0},
		{0, 0.5},
		{0, 2.0},
	}
	truth := []float64{3e-9, 4.0} // nJ/byte and watts
	b := matVec(a, truth)
	x, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := range truth {
		if math.Abs(x[j]-truth[j]) > 1e-6*truth[j] {
			t.Fatalf("x[%d] = %v, want %v", j, x[j], truth[j])
		}
	}
}

func TestNNLSRejectsBadSystems(t *testing.T) {
	cases := []struct {
		name string
		a    [][]float64
		b    []float64
	}{
		{"empty", nil, nil},
		{"row mismatch", [][]float64{{1}}, []float64{1, 2}},
		{"ragged", [][]float64{{1, 2}, {1}}, []float64{1, 2}},
		{"no columns", [][]float64{{}, {}}, []float64{1, 2}},
		{"nan entry", [][]float64{{math.NaN()}}, []float64{1}},
		{"inf target", [][]float64{{1}}, []float64{math.Inf(1)}},
	}
	for _, tc := range cases {
		if _, err := NNLS(tc.a, tc.b); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := ols(tc.a, tc.b); err == nil {
			t.Errorf("%s: OLS accepted", tc.name)
		}
	}
}

// ols is the unconstrained reference TestNNLSBeatsClampedOLS clamps
// and compares NNLS against. It solves min ‖Ax − b‖₂ via
// the normal equations (the systems here are tiny and column-normalized,
// so this is accurate enough). It errors on a singular system.
func ols(a [][]float64, b []float64) ([]float64, error) {
	rows, cols, err := checkSystem(a, b)
	if err != nil {
		return nil, err
	}
	scale := make([]float64, cols)
	for j := 0; j < cols; j++ {
		var ss float64
		for i := 0; i < rows; i++ {
			ss += a[i][j] * a[i][j]
		}
		scale[j] = math.Sqrt(ss)
		if scale[j] == 0 {
			return nil, fmt.Errorf("calib: column %d is identically zero", j)
		}
	}
	w := make([][]float64, rows)
	for i := range w {
		w[i] = make([]float64, cols)
		for j := 0; j < cols; j++ {
			w[i][j] = a[i][j] / scale[j]
		}
	}
	all := make([]bool, cols)
	for j := range all {
		all[j] = true
	}
	x, ok := lsSolvePassive(w, b, all)
	if !ok {
		return nil, fmt.Errorf("calib: singular least-squares system")
	}
	for j := 0; j < cols; j++ {
		x[j] /= scale[j]
	}
	return x, nil
}
