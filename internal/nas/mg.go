package nas

import (
	"math"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/omp"
)

// Grid3 is a cubic grid of float64 with edge length n (power of two plus
// ghost-free periodic indexing): V[(i*n+j)*n+k] holds point (i,j,k), and
// the operators below wrap neighbour indices into [0,n) themselves.
type Grid3 struct {
	N int
	V []float64
}

// NewGrid3 allocates an n^3 grid.
func NewGrid3(n int) *Grid3 { return &Grid3{N: n, V: make([]float64, n*n*n)} }

// Set stores a value at (i,j,k).
func (g *Grid3) Set(i, j, k int, v float64) {
	g.V[i*g.N*g.N+j*g.N+k] = v
}

// wrap maps a neighbour index in [-n, 2n) onto the periodic range [0, n).
func wrap(x, n int) int {
	switch {
	case x < 0:
		return x + n
	case x >= n:
		return x - n
	}
	return x
}

// MGResult is the multigrid benchmark output.
type MGResult struct {
	RNorm  float64
	Cycles int
}

// MG runs the NAS MG structure: niter V-cycles of the multigrid solver
// for the scalar Poisson problem A u = v on an n^3 periodic grid.
func MG(tc exec.TC, rt *omp.Runtime, n, niter, threads int) MGResult {
	v := NewGrid3(n) // right-hand side: a few +1/-1 point charges
	u := NewGrid3(n)
	r := NewRand(0)
	for c := 0; c < 10; c++ {
		i := int(r.Next() * float64(n))
		j := int(r.Next() * float64(n))
		k := int(r.Next() * float64(n))
		val := 1.0
		if c%2 == 1 {
			val = -1.0
		}
		v.Set(i%n, j%n, k%n, val)
	}
	var res MGResult
	for it := 0; it < niter; it++ {
		vcycle(tc, rt, u, v, threads)
		res.Cycles++
	}
	res.RNorm = residNorm(tc, rt, u, v, threads)
	return res
}

// vcycle performs one multigrid V-cycle: restrict the residual to the
// coarsest grid, then interpolate back up with smoothing — rprj3, psinv,
// interp and resid in NAS terms.
func vcycle(tc exec.TC, rt *omp.Runtime, u, v *Grid3, threads int) {
	n := u.N
	if n <= 4 {
		smooth(tc, rt, u, v, threads)
		return
	}
	r := resid(tc, rt, u, v, threads)
	rc := restrict(tc, rt, r, threads)
	uc := NewGrid3(rc.N)
	vcycle(tc, rt, uc, rc, threads)
	prolongAdd(tc, rt, u, uc, threads)
	smooth(tc, rt, u, v, threads)
}

// Stencil coefficients by distance class d = di²+dj²+dk² (0 centre, 1
// face, 2 edge, 3 corner): the S(a) smoother class of MG, the A operator,
// and rprj3's full weighting 1/2^d.
var (
	smoothC   = [4]float64{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0}
	residC    = [4]float64{-8.0 / 3.0, 0, 1.0 / 6.0, 1.0 / 12.0}
	restrictC = [4]float64{1, 1.0 / 2, 1.0 / 4, 1.0 / 8}
)

// stencilTerm is one non-zero point of a 27-point stencil: row indexes
// the (di, dj) neighbour row as (di+1)*3+dj+1, col the column as dk+1.
type stencilTerm struct {
	row, col int
	w        float64
}

// stencilTerms lists the non-zero points of the distance-class stencil c
// in di → dj → dk order, which is the order every sum below runs in.
func stencilTerms(c [4]float64) []stencilTerm {
	var ts []stencilTerm
	for di := -1; di <= 1; di++ {
		for dj := -1; dj <= 1; dj++ {
			for dk := -1; dk <= 1; dk++ {
				if w := c[di*di+dj*dj+dk*dk]; w != 0 {
					ts = append(ts, stencilTerm{(di+1)*3 + dj + 1, dk + 1, w})
				}
			}
		}
	}
	return ts
}

var (
	smoothTerms   = stencilTerms(smoothC)
	residTerms    = stencilTerms(residC)
	restrictTerms = stencilTerms(restrictC)
	// restrictWSum is the sum of restrict's weights, accumulated in term
	// order.
	restrictWSum = func() (s float64) {
		for _, t := range restrictTerms {
			s += t.w
		}
		return s
	}()
)

// neighbourRows fills rows with the flat offsets of the nine periodic
// neighbour rows (i+di, j+dj) of an n^3 grid.
func neighbourRows(rows *[9]int, n, i, j int) {
	for di := -1; di <= 1; di++ {
		for dj := -1; dj <= 1; dj++ {
			rows[(di+1)*3+dj+1] = wrap(i+di, n)*n*n + wrap(j+dj, n)*n
		}
	}
}

// stencil sums ts over g at the neighbour rows and columns of one point.
func stencil(g []float64, rows *[9]int, cols *[3]int, ts []stencilTerm) float64 {
	var s float64
	for _, t := range ts {
		s += t.w * g[rows[t.row]+cols[t.col]]
	}
	return s
}

// applyStencil sets out = base + sign·(ts applied to g) at every point
// of g's grid. sign is ±1, so the product is exact and base ± S rounds
// once, as written.
func applyStencil(tc exec.TC, rt *omp.Runtime, out, base, g *Grid3, ts []stencilTerm, sign float64, threads int) {
	n := g.N
	rt.Parallel(tc, threads, func(w *omp.Worker) {
		w.ForEach(0, n, omp.ForOpt{Sched: omp.Static}, func(i int) {
			var rows [9]int
			for j := 0; j < n; j++ {
				neighbourRows(&rows, n, i, j)
				o := (i*n + j) * n
				for k := 0; k < n; k++ {
					cols := [3]int{wrap(k-1, n), k, wrap(k+1, n)}
					out.V[o+k] = base.V[o+k] + sign*stencil(g.V, &rows, &cols, ts)
				}
			}
		})
	})
}

// resid computes r = v - A u (NAS resid).
func resid(tc exec.TC, rt *omp.Runtime, u, v *Grid3, threads int) *Grid3 {
	r := NewGrid3(u.N)
	applyStencil(tc, rt, r, v, u, residTerms, -1, threads)
	return r
}

// smooth applies u += S r with r = v - A u (NAS psinv after resid).
func smooth(tc exec.TC, rt *omp.Runtime, u, v *Grid3, threads int) {
	r := resid(tc, rt, u, v, threads)
	applyStencil(tc, rt, u, u, r, smoothTerms, 1, threads)
}

// restrict projects a fine grid onto the half-resolution grid (rprj3):
// full weighting around fine point (2i, 2j, 2k).
func restrict(tc exec.TC, rt *omp.Runtime, f *Grid3, threads int) *Grid3 {
	n, nc := f.N, f.N/2
	c := NewGrid3(nc)
	rt.Parallel(tc, threads, func(w *omp.Worker) {
		w.ForEach(0, nc, omp.ForOpt{Sched: omp.Static}, func(i int) {
			var rows [9]int
			for j := 0; j < nc; j++ {
				neighbourRows(&rows, n, 2*i, 2*j)
				o := (i*nc + j) * nc
				for k := 0; k < nc; k++ {
					cols := [3]int{wrap(2*k-1, n), 2 * k, wrap(2*k+1, n)}
					c.V[o+k] = stencil(f.V, &rows, &cols, restrictTerms) / restrictWSum
				}
			}
		})
	})
	return c
}

// prolongAdd interpolates the coarse correction onto the fine grid
// (interp) and adds it to u. Weights are products (x·y)·z of the
// per-axis lerp weights; the (x·y) part and the four coarse rows are
// fixed per fine row.
func prolongAdd(tc exec.TC, rt *omp.Runtime, u, c *Grid3, threads int) {
	n, nc := u.N, c.N
	rt.Parallel(tc, threads, func(w *omp.Worker) {
		w.ForEach(0, n, omp.ForOpt{Sched: omp.Static}, func(i int) {
			fi := float64(i) / 2
			i0 := int(fi)
			di := fi - float64(i0)
			var rows [4]int
			var wxy [4]float64
			for j := 0; j < n; j++ {
				fj := float64(j) / 2
				j0 := int(fj)
				dj := fj - float64(j0)
				for a := 0; a <= 1; a++ {
					for b := 0; b <= 1; b++ {
						rows[2*a+b] = wrap(i0+a, nc)*nc*nc + wrap(j0+b, nc)*nc
						wxy[2*a+b] = lerpW(di, a) * lerpW(dj, b)
					}
				}
				o := (i*n + j) * n
				for k := 0; k < n; k++ {
					fk := float64(k) / 2
					k0 := int(fk)
					dk := fk - float64(k0)
					cols := [2]int{wrap(k0, nc), wrap(k0+1, nc)}
					wz := [2]float64{lerpW(dk, 0), lerpW(dk, 1)}
					var s float64
					for ab, row := range rows {
						for cc, col := range cols {
							s += wxy[ab] * wz[cc] * c.V[row+col]
						}
					}
					u.V[o+k] += s
				}
			}
		})
	})
}

func lerpW(frac float64, side int) float64 {
	if side == 0 {
		return 1 - frac
	}
	return frac
}

// residNorm returns ||v - A u||_2 / n^1.5.
func residNorm(tc exec.TC, rt *omp.Runtime, u, v *Grid3, threads int) float64 {
	r := resid(tc, rt, u, v, threads)
	n := r.N
	var total float64
	rt.Parallel(tc, threads, func(w *omp.Worker) {
		var s float64
		w.For(0, len(r.V), omp.ForOpt{Sched: omp.Static, NoWait: true}, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s += r.V[i] * r.V[i]
			}
		})
		g := w.Reduce(omp.ReduceSum, s)
		w.Master(func() { total = g })
	})
	return math.Sqrt(total) / math.Pow(float64(n), 1.5)
}
