package nas

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/omp"
)

// The MG operators as they were before they indexed Grid3.V through
// precomputed periodic neighbours: every access wraps through At. They
// are the bit-identity oracle for mg.go — same terms, same summation
// order, so every output must match to the last bit.

// At returns the value at (i,j,k) with periodic wrapping.
func (g *Grid3) At(i, j, k int) float64 {
	n := g.N
	return g.V[((i+n)%n)*n*n+((j+n)%n)*n+((k+n)%n)]
}

func refMG(tc exec.TC, rt *omp.Runtime, n, niter, threads int) MGResult {
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
		refVcycle(tc, rt, u, v, threads)
		res.Cycles++
	}
	res.RNorm = refResidNorm(tc, rt, u, v, threads)
	return res
}

func refVcycle(tc exec.TC, rt *omp.Runtime, u, v *Grid3, threads int) {
	n := u.N
	if n <= 4 {
		refSmooth(tc, rt, u, v, threads)
		return
	}
	r := refResid(tc, rt, u, v, threads)
	rc := refRestrict(tc, rt, r, threads)
	uc := NewGrid3(rc.N)
	refVcycle(tc, rt, uc, rc, threads)
	refProlongAdd(tc, rt, u, uc, threads)
	refSmooth(tc, rt, u, v, threads)
}

func applyStencil27(g *Grid3, i, j, k int, c [4]float64) float64 {
	var s float64
	for di := -1; di <= 1; di++ {
		for dj := -1; dj <= 1; dj++ {
			for dk := -1; dk <= 1; dk++ {
				d := di*di + dj*dj + dk*dk
				var w float64
				switch d {
				case 0:
					w = c[0]
				case 1:
					w = c[1]
				case 2:
					w = c[2]
				default:
					w = c[3]
				}
				if w != 0 {
					s += w * g.At(i+di, j+dj, k+dk)
				}
			}
		}
	}
	return s
}

func refResid(tc exec.TC, rt *omp.Runtime, u, v *Grid3, threads int) *Grid3 {
	n := u.N
	r := NewGrid3(n)
	rt.Parallel(tc, threads, func(w *omp.Worker) {
		w.ForEach(0, n, omp.ForOpt{Sched: omp.Static}, func(i int) {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					r.Set(i, j, k, v.At(i, j, k)-applyStencil27(u, i, j, k, residC))
				}
			}
		})
	})
	return r
}

func refSmooth(tc exec.TC, rt *omp.Runtime, u, v *Grid3, threads int) {
	r := refResid(tc, rt, u, v, threads)
	n := u.N
	rt.Parallel(tc, threads, func(w *omp.Worker) {
		w.ForEach(0, n, omp.ForOpt{Sched: omp.Static}, func(i int) {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					u.Set(i, j, k, u.At(i, j, k)+applyStencil27(r, i, j, k, smoothC))
				}
			}
		})
	})
}

func refRestrict(tc exec.TC, rt *omp.Runtime, f *Grid3, threads int) *Grid3 {
	nc := f.N / 2
	c := NewGrid3(nc)
	rt.Parallel(tc, threads, func(w *omp.Worker) {
		w.ForEach(0, nc, omp.ForOpt{Sched: omp.Static}, func(i int) {
			for j := 0; j < nc; j++ {
				for k := 0; k < nc; k++ {
					// Full-weighting restriction.
					var s float64
					var wsum float64
					for di := -1; di <= 1; di++ {
						for dj := -1; dj <= 1; dj++ {
							for dk := -1; dk <= 1; dk++ {
								wgt := 1.0 / float64(int(1)<<uint(abs(di)+abs(dj)+abs(dk)))
								s += wgt * f.At(2*i+di, 2*j+dj, 2*k+dk)
								wsum += wgt
							}
						}
					}
					c.Set(i, j, k, s/wsum)
				}
			}
		})
	})
	return c
}

func refProlongAdd(tc exec.TC, rt *omp.Runtime, u, c *Grid3, threads int) {
	n := u.N
	rt.Parallel(tc, threads, func(w *omp.Worker) {
		w.ForEach(0, n, omp.ForOpt{Sched: omp.Static}, func(i int) {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					// Trilinear interpolation from the coarse grid.
					fi, fj, fk := float64(i)/2, float64(j)/2, float64(k)/2
					i0, j0, k0 := int(fi), int(fj), int(fk)
					di, dj, dk := fi-float64(i0), fj-float64(j0), fk-float64(k0)
					var s float64
					for a := 0; a <= 1; a++ {
						for b := 0; b <= 1; b++ {
							for cc := 0; cc <= 1; cc++ {
								wgt := lerpW(di, a) * lerpW(dj, b) * lerpW(dk, cc)
								s += wgt * c.At(i0+a, j0+b, k0+cc)
							}
						}
					}
					u.Set(i, j, k, u.At(i, j, k)+s)
				}
			}
		})
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func refResidNorm(tc exec.TC, rt *omp.Runtime, u, v *Grid3, threads int) float64 {
	r := refResid(tc, rt, u, v, threads)
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

// randomGrid fills an n^3 grid from the NAS stream at offset seed, values
// in (-1, 1).
func randomGrid(n int, seed uint64) *Grid3 {
	g := NewGrid3(n)
	r := RandAt(DefaultSeed, seed)
	for i := range g.V {
		g.V[i] = 2*r.Next() - 1
	}
	return g
}

func clone(g *Grid3) *Grid3 { return &Grid3{N: g.N, V: slices.Clone(g.V)} }

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: V[%d] = %x, oracle %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// checkMGAgainstOracle runs each operator and MG both ways on grids of
// edge n and demands bit-equal outputs.
func checkMGAgainstOracle(t *testing.T, tc exec.TC, rt *omp.Runtime, n, threads int) {
	t.Helper()
	u, v := randomGrid(n, 1), randomGrid(n, uint64(n*n*n+1))
	sameBits(t, "resid", resid(tc, rt, u, v, threads).V, refResid(tc, rt, u, v, threads).V)

	us, usRef := clone(u), clone(u)
	smooth(tc, rt, us, v, threads)
	refSmooth(tc, rt, usRef, v, threads)
	sameBits(t, "smooth", us.V, usRef.V)

	sameBits(t, "restrict", restrict(tc, rt, u, threads).V, refRestrict(tc, rt, u, threads).V)

	c := randomGrid(n/2, 7)
	up, upRef := clone(u), clone(u)
	prolongAdd(tc, rt, up, c, threads)
	refProlongAdd(tc, rt, upRef, c, threads)
	sameBits(t, "prolongAdd", up.V, upRef.V)

	got, want := MG(tc, rt, n, 2, threads), refMG(tc, rt, n, 2, threads)
	if math.Float64bits(got.RNorm) != math.Float64bits(want.RNorm) || got.Cycles != want.Cycles {
		t.Fatalf("MG: RNorm %x after %d cycles, oracle %x after %d",
			math.Float64bits(got.RNorm), got.Cycles, math.Float64bits(want.RNorm), want.Cycles)
	}
}

func TestMGMatchesAtOracle(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		for _, threads := range []int{1, 3, 4} {
			t.Run(fmt.Sprintf("sim/n=%d/threads=%d", n, threads), func(t *testing.T) {
				withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
					checkMGAgainstOracle(t, tc, rt, n, threads)
				})
			})
		}
		t.Run(fmt.Sprintf("real/n=%d/threads=2", n), func(t *testing.T) {
			withRealRuntime(t, 2, func(tc exec.TC, rt *omp.Runtime) {
				checkMGAgainstOracle(t, tc, rt, n, 2)
			})
		})
	}
}

// TestMGAllocs bounds MG's allocations at the oracle's count: the grids
// and one closure per region. Neighbour rows live on the stack and the
// stencil tables at package level; a table captured by a region closure
// would cost one more allocation per region.
func TestMGAllocs(t *testing.T) {
	withRealRuntime(t, 2, func(tc exec.TC, rt *omp.Runtime) {
		MG(tc, rt, 32, 2, 2)
		if a := testing.AllocsPerRun(5, func() { MG(tc, rt, 32, 2, 2) }); a > 95 {
			t.Errorf("MG(n=32, 2 cycles, 2 threads) allocates %v times, want <= 95", a)
		}
	})
}
