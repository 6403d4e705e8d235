// Package calib is the learned-device-model pipeline: it sweeps the
// mechanistic simulators through deterministic workload grids, fits a
// compact non-negative linear power model per device class with an
// active-set NNLS solver, cross-validates the fit (R², MAPE), and
// serves the result back through FittedDevice — a device.Device
// implementation driven only by the fitted coefficients, so planners
// and the serving engine can consume hardware that has measurements
// but no simulator.
package calib

import (
	"fmt"
	"math"
)

// nnlsMaxIter bounds the active-set loop per unknown; Lawson–Hanson
// terminates in finitely many steps, so hitting the bound means the
// inputs were degenerate enough to cycle numerically.
const nnlsMaxIter = 30

// checkSystem validates the shared preconditions of NNLS and the
// tests' unconstrained reference solver:
// a non-empty rectangular system with finite entries.
func checkSystem(a [][]float64, b []float64) (rows, cols int, err error) {
	rows = len(a)
	if rows == 0 || rows != len(b) {
		return 0, 0, fmt.Errorf("calib: system has %d rows for %d targets", rows, len(b))
	}
	cols = len(a[0])
	if cols == 0 {
		return 0, 0, fmt.Errorf("calib: system has no columns")
	}
	for i, row := range a {
		if len(row) != cols {
			return 0, 0, fmt.Errorf("calib: row %d has %d columns, want %d", i, len(row), cols)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, 0, fmt.Errorf("calib: non-finite entry at [%d][%d]", i, j)
			}
		}
	}
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, 0, fmt.Errorf("calib: non-finite target at [%d]", i)
		}
	}
	return rows, cols, nil
}

// NNLS solves min ‖Ax − b‖₂ subject to x ≥ 0 with the Lawson–Hanson
// active-set method. a is row-major (a[i] is one observation). The
// solver is deterministic: ties in the entering-variable choice break
// toward the lowest column index, so the same system always yields the
// same solution bit for bit.
//
// Columns are normalized to unit Euclidean length internally (the
// feature scales here span ~15 orders of magnitude — joules per byte
// against joules per second), which preserves both the constraint set
// and the optimum; the returned coefficients are in the caller's units.
func NNLS(a [][]float64, b []float64) ([]float64, error) {
	rows, cols, err := checkSystem(a, b)
	if err != nil {
		return nil, err
	}

	// Column-normalized working copy.
	scale := make([]float64, cols)
	for j := 0; j < cols; j++ {
		var ss float64
		for i := 0; i < rows; i++ {
			ss += a[i][j] * a[i][j]
		}
		scale[j] = math.Sqrt(ss)
		if scale[j] == 0 {
			scale[j] = 1 // all-zero column: never enters (its gradient is 0)
		}
	}
	w := make([][]float64, rows)
	for i := range w {
		w[i] = make([]float64, cols)
		for j := 0; j < cols; j++ {
			w[i][j] = a[i][j] / scale[j]
		}
	}

	var bNorm float64
	for _, v := range b {
		bNorm += v * v
	}
	tol := 1e-10 * (1 + math.Sqrt(bNorm))

	x := make([]float64, cols)    // current iterate (scaled units)
	passive := make([]bool, cols) // the active-set partition
	banned := make([]bool, cols)  // columns exactly collinear with the passive set
	resid := append([]float64(nil), b...)
	grad := make([]float64, cols)

	for iter := 0; iter < nnlsMaxIter*cols; iter++ {
		// Gradient of the objective at x: Aᵀ(b − Ax).
		for j := 0; j < cols; j++ {
			grad[j] = 0
			for i := 0; i < rows; i++ {
				grad[j] += w[i][j] * resid[i]
			}
		}
		// Most-improving constrained column; lowest index wins ties.
		enter, best := -1, tol
		for j := 0; j < cols; j++ {
			if !passive[j] && !banned[j] && grad[j] > best {
				enter, best = j, grad[j]
			}
		}
		if enter < 0 {
			break // KKT: no inactive column can reduce the residual
		}
		passive[enter] = true

		// Inner loop: unconstrained LS on the passive set, stepping back
		// toward feasibility while any passive coefficient would go
		// negative.
		for {
			z, ok := lsSolvePassive(w, b, passive)
			if !ok {
				// The entering column made the passive normal matrix
				// singular (exact collinearity). Drop and ban it so the
				// outer loop cannot pick it again and cycle.
				passive[enter] = false
				banned[enter] = true
				break
			}
			neg := false
			alpha := 1.0
			for j := 0; j < cols; j++ {
				if passive[j] && z[j] <= 0 {
					neg = true
					if step := x[j] / (x[j] - z[j]); step < alpha {
						alpha = step
					}
				}
			}
			if !neg {
				copy(x, z)
				break
			}
			for j := 0; j < cols; j++ {
				if passive[j] {
					x[j] += alpha * (z[j] - x[j])
					if x[j] <= tol {
						x[j] = 0
						passive[j] = false
					}
				}
			}
		}

		// Refresh the residual for the next gradient.
		for i := 0; i < rows; i++ {
			r := b[i]
			for j := 0; j < cols; j++ {
				if x[j] != 0 {
					r -= w[i][j] * x[j]
				}
			}
			resid[i] = r
		}
	}

	out := make([]float64, cols)
	for j := 0; j < cols; j++ {
		if x[j] < 0 {
			x[j] = 0
		}
		out[j] = x[j] / scale[j]
	}
	return out, nil
}

// lsSolvePassive solves the unconstrained least-squares problem over
// the passive columns of a via the normal equations with partially
// pivoted Gaussian elimination. The returned vector is full-width with
// zeros in the active positions; ok is false on a singular system.
func lsSolvePassive(a [][]float64, b []float64, passive []bool) ([]float64, bool) {
	var idx []int
	for j, p := range passive {
		if p {
			idx = append(idx, j)
		}
	}
	n := len(idx)
	out := make([]float64, len(passive))
	if n == 0 {
		return out, true
	}
	// Normal equations G z = g with G = AᵀA, g = Aᵀb over passive columns.
	g := make([][]float64, n)
	rhs := make([]float64, n)
	for p := 0; p < n; p++ {
		g[p] = make([]float64, n)
		for q := 0; q < n; q++ {
			var s float64
			for i := range a {
				s += a[i][idx[p]] * a[i][idx[q]]
			}
			g[p][q] = s
		}
		var s float64
		for i := range a {
			s += a[i][idx[p]] * b[i]
		}
		rhs[p] = s
	}
	// Gaussian elimination with partial pivoting.
	const singTol = 1e-12
	for c := 0; c < n; c++ {
		piv := c
		for r := c + 1; r < n; r++ {
			if math.Abs(g[r][c]) > math.Abs(g[piv][c]) {
				piv = r
			}
		}
		if math.Abs(g[piv][c]) < singTol {
			return nil, false
		}
		g[c], g[piv] = g[piv], g[c]
		rhs[c], rhs[piv] = rhs[piv], rhs[c]
		for r := c + 1; r < n; r++ {
			f := g[r][c] / g[c][c]
			if f == 0 {
				continue
			}
			for k := c; k < n; k++ {
				g[r][k] -= f * g[c][k]
			}
			rhs[r] -= f * rhs[c]
		}
	}
	for c := n - 1; c >= 0; c-- {
		s := rhs[c]
		for k := c + 1; k < n; k++ {
			s -= g[c][k] * out[idx[k]]
		}
		out[idx[c]] = s / g[c][c]
	}
	return out, true
}
