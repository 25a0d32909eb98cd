package nas

import (
	"math"
	"slices"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/omp"
)

// SparseMatrix is a CSR symmetric positive-definite matrix.
type SparseMatrix struct {
	N      int
	RowPtr []int
	Col    []int
	Val    []float64
}

// MakeSparse generates a random sparse SPD matrix in the spirit of CG's
// makea: random off-diagonal pattern with geometric weights plus a
// dominant shifted diagonal. The matrix is a pure function of its
// arguments: every sum runs in a fixed order.
func MakeSparse(n, nonzerPerRow int, shift float64) *SparseMatrix {
	r := NewRand(0)
	type entry struct {
		col int
		val float64
	}
	// Each row collects its (col, val) draws in generation order, in a
	// slice of one shared backing array sized for the expected 2*nz.
	per := 2 * nonzerPerRow
	buf, rows := make([]entry, n*per), make([][]entry, n)
	for i := range rows {
		rows[i] = buf[i*per : i*per : (i+1)*per]
	}
	for i := 0; i < n; i++ {
		for k := 0; k < nonzerPerRow; k++ {
			j := int(r.Next() * float64(n))
			if j >= n {
				j = n - 1
			}
			v := r.Next() * math.Pow(0.5, float64(k))
			// Symmetrize.
			rows[i] = append(rows[i], entry{j, v})
			rows[j] = append(rows[j], entry{i, v})
		}
	}
	m := &SparseMatrix{N: n, RowPtr: make([]int, n+1)}
	for i, row := range rows {
		// A zero diagonal entry, last among its column's draws, so the
		// merge below leaves every row with exactly one.
		row = append(row, entry{i, 0})
		// CSR, columns ascending; the sort is stable, so the draws of one
		// column stay in generation order.
		slices.SortStableFunc(row, func(a, b entry) int { return a.col - b.col })
		merged := row[:0]
		for _, e := range row {
			if l := len(merged) - 1; l >= 0 && merged[l].col == e.col {
				merged[l].val += e.val
			} else {
				merged = append(merged, e)
			}
		}
		// Diagonal dominance: diag = shift + row sum, summed in column
		// order.
		var sum float64
		for _, e := range merged {
			sum += math.Abs(e.val)
		}
		for _, e := range merged {
			if e.col == i {
				e.val += sum + shift
			}
			m.Col = append(m.Col, e.col)
			m.Val = append(m.Val, e.val)
		}
		m.RowPtr[i+1] = len(m.Col)
	}
	return m
}

// CGResult is the conjugate-gradient benchmark output.
type CGResult struct {
	Zeta  float64
	RNorm float64
	Iters int
}

// CG runs the NAS CG benchmark structure: niter outer iterations, each
// solving A z = x with cgitmax inner CG steps and updating the shifted
// eigenvalue estimate zeta.
func CG(tc exec.TC, rt *omp.Runtime, a *SparseMatrix, niter, cgitmax int, lambda float64, threads int) CGResult {
	n := a.N
	x := make([]float64, n)
	z := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	var res CGResult
	for it := 0; it < niter; it++ {
		rnorm := cgSolve(tc, rt, a, x, z, cgitmax, threads)
		// zeta = lambda + 1 / (x . z), then x = z / ||z||.
		var dot, znorm float64
		rt.Parallel(tc, threads, func(w *omp.Worker) {
			var d, zn float64
			w.For(0, n, omp.ForOpt{Sched: omp.Static, NoWait: true}, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					d += x[i] * z[i]
					zn += z[i] * z[i]
				}
			})
			gd := w.Reduce(omp.ReduceSum, d)
			gz := w.Reduce(omp.ReduceSum, zn)
			w.Master(func() { dot, znorm = gd, gz })
		})
		znorm = math.Sqrt(znorm)
		rt.Parallel(tc, threads, func(w *omp.Worker) {
			w.ForEach(0, n, omp.ForOpt{Sched: omp.Static}, func(i int) {
				x[i] = z[i] / znorm
			})
		})
		res.Zeta = lambda + 1/dot
		res.RNorm = rnorm
		res.Iters++
	}
	return res
}

// cgSolve performs cgitmax steps of conjugate gradient on A z = rhs,
// returning ||rhs - A z||.
func cgSolve(tc exec.TC, rt *omp.Runtime, a *SparseMatrix, rhs, z []float64, cgitmax, threads int) float64 {
	n := a.N
	r := make([]float64, n)
	p := make([]float64, n)
	q := make([]float64, n)
	var rho float64
	rt.Parallel(tc, threads, func(w *omp.Worker) {
		var lr float64
		w.For(0, n, omp.ForOpt{Sched: omp.Static, NoWait: true}, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				z[i] = 0
				r[i] = rhs[i]
				p[i] = rhs[i]
				lr += r[i] * r[i]
			}
		})
		g := w.Reduce(omp.ReduceSum, lr)
		w.Master(func() { rho = g })
	})
	for it := 0; it < cgitmax; it++ {
		var pq float64
		rt.Parallel(tc, threads, func(w *omp.Worker) {
			var lpq float64
			// q = A p  (the irregular-access loop that dominates CG).
			w.For(0, n, omp.ForOpt{Sched: omp.Static, NoWait: true}, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					var s float64
					for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
						s += a.Val[k] * p[a.Col[k]]
					}
					q[i] = s
					lpq += p[i] * s
				}
			})
			g := w.Reduce(omp.ReduceSum, lpq)
			w.Master(func() { pq = g })
		})
		alpha := rho / pq
		var rhoNew float64
		rt.Parallel(tc, threads, func(w *omp.Worker) {
			var lr float64
			w.For(0, n, omp.ForOpt{Sched: omp.Static, NoWait: true}, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					z[i] += alpha * p[i]
					r[i] -= alpha * q[i]
					lr += r[i] * r[i]
				}
			})
			g := w.Reduce(omp.ReduceSum, lr)
			w.Master(func() { rhoNew = g })
		})
		beta := rhoNew / rho
		rho = rhoNew
		rt.Parallel(tc, threads, func(w *omp.Worker) {
			w.ForEach(0, n, omp.ForOpt{Sched: omp.Static}, func(i int) {
				p[i] = r[i] + beta*p[i]
			})
		})
	}
	// Residual ||rhs - A z||.
	var norm float64
	rt.Parallel(tc, threads, func(w *omp.Worker) {
		var ln float64
		w.For(0, n, omp.ForOpt{Sched: omp.Static, NoWait: true}, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var s float64
				for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
					s += a.Val[k] * z[a.Col[k]]
				}
				d := rhs[i] - s
				ln += d * d
			}
		})
		g := w.Reduce(omp.ReduceSum, ln)
		w.Master(func() { norm = g })
	})
	return math.Sqrt(norm)
}
