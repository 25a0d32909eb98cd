package omp

import (
	"strings"
	"sync/atomic"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/places"
	"github.com/interweaving/komp/internal/sim"
)

// TestNestedLevels pins the nesting introspection API two levels deep:
// Level / ActiveLevel / AncestorThreadNum / TeamSize, and that an inner
// region really forks a team (all inner thread numbers execute).
func TestNestedLevels(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true, MaxActiveLevels: 2},
		func(rt *Runtime, tc exec.TC) {
			var innerRan atomic.Int64
			var badLevel atomic.Int64
			rt.Parallel(tc, 2, func(ow *Worker) {
				if ow.Level() != 1 || ow.ActiveLevel() != 1 {
					badLevel.Add(1)
				}
				outerID := ow.ThreadNum()
				ow.Parallel(3, func(iw *Worker) {
					innerRan.Add(1)
					if iw.Level() != 2 || iw.ActiveLevel() != 2 {
						badLevel.Add(1)
					}
					if iw.NumThreads() != 3 {
						t.Errorf("inner NumThreads = %d, want 3", iw.NumThreads())
					}
					if got := iw.AncestorThreadNum(1); got != outerID {
						t.Errorf("AncestorThreadNum(1) = %d, want %d", got, outerID)
					}
					if got := iw.AncestorThreadNum(2); got != iw.ThreadNum() {
						t.Errorf("AncestorThreadNum(2) = %d, want %d", got, iw.ThreadNum())
					}
					if got := iw.AncestorThreadNum(0); got != 0 {
						t.Errorf("AncestorThreadNum(0) = %d, want 0", got)
					}
					if got := iw.AncestorThreadNum(3); got != -1 {
						t.Errorf("AncestorThreadNum(3) = %d, want -1", got)
					}
					if got := iw.TeamSize(1); got != 2 {
						t.Errorf("TeamSize(1) = %d, want 2", got)
					}
					if got := iw.TeamSize(2); got != 3 {
						t.Errorf("TeamSize(2) = %d, want 3", got)
					}
					if got := iw.TeamSize(0); got != 1 {
						t.Errorf("TeamSize(0) = %d, want 1", got)
					}
				})
			})
			if innerRan.Load() != 6 {
				t.Errorf("inner bodies ran %d times, want 6 (2 outer x 3 inner)", innerRan.Load())
			}
			if badLevel.Load() != 0 {
				t.Errorf("%d workers saw wrong Level/ActiveLevel", badLevel.Load())
			}
		})
}

// TestInParallelActiveLevels pins the omp_in_parallel fix: a top-level
// serialized region is NOT in parallel; a serialized inner region under
// an active outer one IS.
func TestInParallelActiveLevels(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		rt.Parallel(tc, 1, func(w *Worker) {
			if w.InParallel() {
				t.Error("top-level serialized region: InParallel() = true, want false")
			}
			if w.Level() != 1 || w.ActiveLevel() != 0 {
				t.Errorf("serialized region Level/ActiveLevel = %d/%d, want 1/0",
					w.Level(), w.ActiveLevel())
			}
		})
		rt.Parallel(tc, 4, func(ow *Worker) {
			if !ow.InParallel() {
				t.Error("active region: InParallel() = false, want true")
			}
			// MaxActiveLevels defaults to 1: the inner region serializes,
			// but it is still nested inside an active region.
			ow.Parallel(4, func(iw *Worker) {
				if iw.NumThreads() != 1 {
					t.Errorf("inner NumThreads = %d, want 1 (serialized at the cap)", iw.NumThreads())
				}
				if !iw.InParallel() {
					t.Error("serialized inner region under active outer: InParallel() = false, want true")
				}
				if iw.Level() != 2 || iw.ActiveLevel() != 1 {
					t.Errorf("inner Level/ActiveLevel = %d/%d, want 2/1", iw.Level(), iw.ActiveLevel())
				}
			})
		})
	})
}

// TestNumThreadsList pins the comma-list OMP_NUM_THREADS ICV: entry i
// sizes level i+1, the last entry covering deeper levels.
func TestNumThreadsList(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true, MaxActiveLevels: 3,
		NumThreadsList: []int{4, 2}, DefaultThreads: 4},
		func(rt *Runtime, tc exec.TC) {
			rt.Parallel(tc, 0, func(ow *Worker) {
				if ow.NumThreads() != 4 {
					t.Errorf("level-1 NumThreads = %d, want 4", ow.NumThreads())
				}
				if ow.ThreadNum() != 0 {
					return // one forker is enough: keep the lease demand bounded
				}
				ow.Parallel(0, func(iw *Worker) {
					if iw.NumThreads() != 2 {
						t.Errorf("level-2 NumThreads = %d, want 2", iw.NumThreads())
					}
					if iw.ThreadNum() != 0 {
						return
					}
					iw.Parallel(0, func(dw *Worker) {
						// Past the end of the list: the last entry applies.
						if dw.NumThreads() != 2 {
							t.Errorf("level-3 NumThreads = %d, want 2", dw.NumThreads())
						}
					})
				})
			})
		})
}

// TestLeaseShortfall: when the pool cannot satisfy every inner fork, the
// inner teams shrink (down to 1) instead of deadlocking or
// oversubscribing, and every requested body still runs.
func TestLeaseShortfall(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 4, Bind: true, MaxActiveLevels: 2},
		func(rt *Runtime, tc exec.TC) {
			// Outer team of 4 leases the whole pool (3 workers): nothing
			// is left, so every inner region collapses to a team of 1.
			var innerSizes atomic.Int64
			rt.Parallel(tc, 4, func(ow *Worker) {
				ow.Parallel(4, func(iw *Worker) {
					if iw.ThreadNum() == 0 {
						innerSizes.Add(int64(iw.NumThreads()))
					}
				})
			})
			if innerSizes.Load() != 4 {
				t.Errorf("sum of inner team sizes = %d, want 4 (all collapsed to 1)", innerSizes.Load())
			}
		})
}

// TestInnerCancelScoped pins the cancellation scoping contract: a cancel
// issued inside an inner team cancels that team only — the outer team's
// cancel word stays zero and the outer region runs to completion.
func TestInnerCancelScoped(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true, MaxActiveLevels: 2, Cancellation: true},
		func(rt *Runtime, tc exec.TC) {
			var outerFlags atomic.Int64
			var outerFinished atomic.Int64
			rt.Parallel(tc, 2, func(ow *Worker) {
				if ow.ThreadNum() == 0 {
					ow.Parallel(3, func(iw *Worker) {
						if iw.ThreadNum() == 0 {
							if !iw.Cancel(CancelParallel) {
								t.Error("inner Cancel(parallel) returned false with the ICV on")
							}
							return
						}
						for !iw.CancellationPoint(CancelParallel) {
							iw.tc.Yield()
						}
					})
				}
				// The outer region must be unaffected: its cancel word is
				// clean and its barrier still converges.
				outerFlags.Add(int64(ow.team.cancelFlags.Load()))
				ow.Barrier()
				outerFinished.Add(1)
			})
			if outerFlags.Load() != 0 {
				t.Errorf("outer team cancel bits = %d after inner cancel, want 0", outerFlags.Load())
			}
			if outerFinished.Load() != 2 {
				t.Errorf("outer region finished on %d threads, want 2", outerFinished.Load())
			}
		})
}

// TestOuterCancelReachesInner: cancelling the outer region cancels teams
// forked inside it — inner cancellation points observe the outer cancel
// and the whole hierarchy converges at its joins.
func TestOuterCancelReachesInner(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true, MaxActiveLevels: 2, Cancellation: true},
		func(rt *Runtime, tc exec.TC) {
			var innerStarted exec.Word
			var innerSawCancel atomic.Int64
			rt.Parallel(tc, 2, func(ow *Worker) {
				if ow.ThreadNum() == 0 {
					ow.Parallel(3, func(iw *Worker) {
						innerStarted.Store(1)
						for !iw.CancellationPoint(CancelParallel) {
							iw.tc.Yield()
						}
						innerSawCancel.Add(1)
					})
					return
				}
				for innerStarted.Load() == 0 {
					ow.tc.Yield()
				}
				if !ow.Cancel(CancelParallel) {
					t.Error("outer Cancel(parallel) returned false with the ICV on")
				}
			})
			if innerSawCancel.Load() != 3 {
				t.Errorf("%d inner workers observed the outer cancel, want 3", innerSawCancel.Load())
			}
		})
}

// TestShrinkNestedInner: taking a CPU offline that belongs to an inner
// team's leased worker shrinks the inner team only; the outer team stays
// whole and both regions complete.
func TestShrinkNestedInner(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true, MaxActiveLevels: 2, Resilient: true},
		func(rt *Runtime, tc exec.TC) {
			var innerAlive, outerAlive atomic.Int64
			var offlined atomic.Bool
			rt.Parallel(tc, 2, func(ow *Worker) {
				if ow.ThreadNum() == 0 {
					// Outer leases pool worker 1; the inner fork leases
					// workers 2,3,4 (lowest free ids), bound to CPUs 2,3,4
					// under the close pool placement.
					ow.Parallel(4, func(iw *Worker) {
						if iw.ThreadNum() == 0 {
							rt.OfflineCPU(3)
							offlined.Store(true)
						}
						// On the real clock the worker on CPU 3 can reach
						// the barrier's safe-point check before the master
						// has doomed it; hold everyone until it has.
						for !offlined.Load() {
							iw.TC().Yield()
						}
						iw.Barrier() // safe point: the doomed worker leaves here
						if iw.ThreadNum() == 0 {
							innerAlive.Store(int64(iw.NumAlive()))
						}
					})
				}
				ow.Barrier()
				if ow.ThreadNum() == 0 {
					outerAlive.Store(int64(ow.NumAlive()))
				}
			})
			if innerAlive.Load() != 3 {
				t.Errorf("inner NumAlive = %d after offlining an inner CPU, want 3", innerAlive.Load())
			}
			if outerAlive.Load() != 2 {
				t.Errorf("outer NumAlive = %d, want 2 (outer team must not shrink)", outerAlive.Load())
			}
		})
}

// TestShrinkDoomedOuterMasterDrainsInner: dooming an outer worker while
// it is the master of an inner team must not kill the inner region —
// the inner team completes and joins first; the worker dies at its next
// outer safe point.
func TestShrinkDoomedOuterMasterDrainsInner(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true, MaxActiveLevels: 2, Resilient: true},
		func(rt *Runtime, tc exec.TC) {
			var innerBodies atomic.Int64
			var outerAliveAfter atomic.Int64
			rt.Parallel(tc, 2, func(ow *Worker) {
				if ow.ThreadNum() == 1 {
					// Worker 1 sits on CPU 1 (close pool placement). Doom
					// it mid-inner-region: the inner team must still run
					// both bodies and a barrier before the death lands.
					ow.Parallel(2, func(iw *Worker) {
						if iw.ThreadNum() == 0 {
							rt.OfflineCPU(1)
						}
						iw.Barrier()
						innerBodies.Add(1)
					})
				}
				ow.Barrier() // outer safe point: worker 1 dies here
				outerAliveAfter.Store(int64(ow.NumAlive()))
			})
			if innerBodies.Load() != 2 {
				t.Errorf("inner bodies after dooming the inner master = %d, want 2", innerBodies.Load())
			}
			if outerAliveAfter.Load() != 1 {
				t.Errorf("outer NumAlive = %d after the doomed worker left, want 1", outerAliveAfter.Load())
			}
		})
}

// TestPerLevelProcBind is the regression test for the per-level
// OMP_PROC_BIND list: an inner team binds by its own level's policy,
// subpartitioning the master's place — under the default one-place-per-
// core partition every inner worker lands on its master's CPU.
func TestPerLevelProcBind(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true, MaxActiveLevels: 2,
		ProcBind:     places.BindSpread,
		ProcBindList: []places.Bind{places.BindSpread, places.BindClose}},
		func(rt *Runtime, tc exec.TC) {
			var misplaced atomic.Int64
			rt.Parallel(tc, 2, func(ow *Worker) {
				masterCPU := ow.tc.CPU()
				ow.Parallel(2, func(iw *Worker) {
					if iw.tc.CPU() != masterCPU {
						misplaced.Add(1)
					}
				})
			})
			if misplaced.Load() != 0 {
				t.Errorf("%d inner workers left their master's place", misplaced.Load())
			}
		})
}

// TestNestedPoolReturn exercises the KOMP_NESTED_POOL=return lease
// policy: the lease goes back at every inner join, so repeated inner
// regions keep working (reconstructed each time) and sibling forks can
// share pool workers over time.
func TestNestedPoolReturn(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true, MaxActiveLevels: 2,
		NestedPool: NestedPoolReturn},
		func(rt *Runtime, tc exec.TC) {
			var innerBodies atomic.Int64
			rt.Parallel(tc, 2, func(ow *Worker) {
				for r := 0; r < 3; r++ {
					ow.Parallel(2, func(iw *Worker) {
						innerBodies.Add(1)
					})
					ow.Barrier()
				}
			})
			if innerBodies.Load() != 12 {
				t.Errorf("inner bodies = %d, want 12", innerBodies.Load())
			}
		})
}

// TestNonNestedForkZeroAlloc asserts the hard acceptance criterion: the
// non-nested repeated-region fork/barrier fast path allocates nothing.
// Run on the simulator layer (the real layer's FutexWait allocates a
// park channel by design); a warm-up loop first saturates the hot team
// and the simulator's amortized wait-queue capacities.
func TestNonNestedForkZeroAlloc(t *testing.T) {
	layer := exec.NewSimLayer(sim.New(8, 7), simCosts())
	rt := New(layer, Options{MaxThreads: 8, Bind: true})
	var avg float64
	_, err := layer.Run(func(tc exec.TC) {
		body := func(w *Worker) { w.Barrier() }
		for i := 0; i < 100; i++ {
			rt.Parallel(tc, 8, body)
		}
		avg = testing.AllocsPerRun(50, func() {
			rt.Parallel(tc, 8, body)
		})
		rt.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("non-nested fork/barrier allocates %.2f objects per region, want 0", avg)
	}
}

// TestEnvNestedICVs covers the environment surface of the nesting ICVs,
// including the parse-time warning for a per-level OMP_PROC_BIND list
// that OMP_MAX_ACTIVE_LEVELS makes unreachable.
func TestEnvNestedICVs(t *testing.T) {
	env := func(kv map[string]string) func(string) (string, bool) {
		return func(k string) (string, bool) { v, ok := kv[k]; return v, ok }
	}
	var o Options
	if err := o.Env(env(map[string]string{
		"OMP_NUM_THREADS":       "8,4",
		"OMP_MAX_ACTIVE_LEVELS": "2",
		"KOMP_NESTED_POOL":      "return",
	})); err != nil {
		t.Fatal(err)
	}
	if o.DefaultThreads != 8 || len(o.NumThreadsList) != 2 || o.NumThreadsList[1] != 4 {
		t.Errorf("OMP_NUM_THREADS list parsed as %d / %v", o.DefaultThreads, o.NumThreadsList)
	}
	if o.MaxActiveLevels != 2 {
		t.Errorf("MaxActiveLevels = %d, want 2", o.MaxActiveLevels)
	}
	if o.NestedPool != NestedPoolReturn {
		t.Errorf("NestedPool = %v, want return", o.NestedPool)
	}

	o = Options{}
	if err := o.Env(env(map[string]string{"OMP_PROC_BIND": "spread,close"})); err != nil {
		t.Fatal(err)
	}
	if len(o.ProcBindList) != 2 || o.ProcBind != places.BindSpread {
		t.Errorf("OMP_PROC_BIND list parsed as %v / %v", o.ProcBind, o.ProcBindList)
	}
	if len(o.Warnings) != 1 || !strings.Contains(o.Warnings[0], "never apply") {
		t.Errorf("expected one unreachable-bind-levels warning, got %q", o.Warnings)
	}

	o = Options{}
	if err := o.Env(env(map[string]string{
		"OMP_PROC_BIND":         "spread,close",
		"OMP_MAX_ACTIVE_LEVELS": "2",
	})); err != nil {
		t.Fatal(err)
	}
	if len(o.Warnings) != 0 {
		t.Errorf("unexpected warnings with a deep enough level cap: %q", o.Warnings)
	}

	for _, bad := range []map[string]string{
		{"OMP_NUM_THREADS": "8,0"},
		{"OMP_NUM_THREADS": "8,x"},
		{"OMP_MAX_ACTIVE_LEVELS": "0"},
		{"KOMP_NESTED_POOL": "bogus"},
	} {
		o = Options{}
		if err := o.Env(env(bad)); err == nil {
			t.Errorf("Env(%v): expected an error", bad)
		}
	}
}
