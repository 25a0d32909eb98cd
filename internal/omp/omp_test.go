package omp

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/sim"
	"github.com/interweaving/komp/internal/trace"
)

func simCosts() exec.Costs {
	return exec.Costs{
		ThreadSpawnNS: 2000, ThreadJoinNS: 300,
		FutexWaitEntryNS: 100, FutexWakeEntryNS: 100,
		FutexWakeLatencyNS: 300, FutexWakeStaggerNS: 30,
		AtomicRMWNS: 20, CacheLineXferNS: 40, MallocNS: 100,
	}
}

func testLayers() map[string]func() exec.Layer {
	return map[string]func() exec.Layer{
		"real": func() exec.Layer { return exec.NewRealLayer(8) },
		"sim":  func() exec.Layer { return exec.NewSimLayer(sim.New(8, 7), simCosts()) },
	}
}

// run executes body inside a fresh runtime on the layer, closing the pool
// afterwards. Every run carries the lock-discipline checker on the
// runtime's spine: the whole suite doubles as its workload, so any test
// that introduces a lock-order inversion, an unmatched release, or a
// barrier divergence fails here even if its own assertions pass.
func run(t *testing.T, mk func() exec.Layer, opts Options, body func(rt *Runtime, tc exec.TC)) {
	t.Helper()
	layer := mk()
	if opts.Spine == nil {
		opts.Spine = ompt.NewSpine()
	}
	check := ompt.NewLockCheck(opts.Spine)
	rt := New(layer, opts)
	_, err := layer.Run(func(tc exec.TC) {
		body(rt, tc)
		rt.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range check.Violations() {
		t.Errorf("lock discipline: %s", v)
	}
}

// onSimulator reports whether rt runs on the DES. Assertions about what
// is still running after some Charge hold only there: Charge advances
// virtual time and is a no-op on the real layer.
func onSimulator(rt *Runtime) bool {
	_, ok := rt.Layer().(*exec.SimLayer)
	return ok
}

func forBothLayers(t *testing.T, opts Options, body func(rt *Runtime, tc exec.TC)) {
	for name, mk := range testLayers() {
		t.Run(name, func(t *testing.T) { run(t, mk, opts, body) })
	}
}

func TestParallelBasics(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var seen [8]atomic.Bool
		var count atomic.Int64
		rt.Parallel(tc, 8, func(w *Worker) {
			if w.NumThreads() != 8 {
				t.Errorf("NumThreads = %d", w.NumThreads())
			}
			seen[w.ThreadNum()].Store(true)
			count.Add(1)
		})
		if count.Load() != 8 {
			t.Errorf("ran %d bodies, want 8", count.Load())
		}
		for i := range seen {
			if !seen[i].Load() {
				t.Errorf("thread %d missing", i)
			}
		}
	})
}

func TestParallelSerializedWhenOne(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8}, func(rt *Runtime, tc exec.TC) {
		n := 0
		rt.Parallel(tc, 1, func(w *Worker) {
			if w.NumThreads() != 1 || w.ThreadNum() != 0 {
				t.Errorf("serialized region wrong: %d/%d", w.ThreadNum(), w.NumThreads())
			}
			n++
		})
		if n != 1 {
			t.Errorf("serialized region ran %d times", n)
		}
	})
}

func TestRepeatedRegionsReusePool(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 4, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var total atomic.Int64
		for r := 0; r < 20; r++ {
			rt.Parallel(tc, 4, func(w *Worker) { total.Add(1) })
		}
		if total.Load() != 80 {
			t.Errorf("total = %d, want 80", total.Load())
		}
		if got := rt.Regions.Load(); got != 20 {
			t.Errorf("regions = %d", got)
		}
	})
}

func TestVaryingTeamSizes(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		for _, n := range []int{2, 8, 3, 1, 5, 8} {
			var count atomic.Int64
			rt.Parallel(tc, n, func(w *Worker) {
				if w.NumThreads() != n {
					t.Errorf("NumThreads = %d, want %d", w.NumThreads(), n)
				}
				count.Add(1)
			})
			if int(count.Load()) != n {
				t.Errorf("size %d ran %d bodies", n, count.Load())
			}
		}
	})
}

// checkCoverage verifies that a worksharing loop executed every iteration
// exactly once.
func checkCoverage(t *testing.T, hits []atomic.Int32, what string) {
	t.Helper()
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("%s: iteration %d ran %d times", what, i, got)
		}
	}
}

func TestForSchedules(t *testing.T) {
	const iters = 1000
	cases := []ForOpt{
		{Sched: Static},
		{Sched: Static, Chunk: 7},
		{Sched: Dynamic, Chunk: 1},
		{Sched: Dynamic, Chunk: 16},
		{Sched: Guided, Chunk: 1},
		{Sched: Guided, Chunk: 4},
	}
	for name, mk := range testLayers() {
		for _, opt := range cases {
			opt := opt
			label := name + "/" + opt.Sched.String()
			if opt.Chunk > 0 {
				label += "-chunked"
			}
			t.Run(label, func(t *testing.T) {
				run(t, mk, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
					hits := make([]atomic.Int32, iters)
					rt.Parallel(tc, 8, func(w *Worker) {
						w.ForEach(0, iters, opt, func(i int) {
							hits[i].Add(1)
						})
					})
					checkCoverage(t, hits, label)
				})
			})
		}
	}
}

func TestForNonZeroLowerBound(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 4, Bind: true}, func(rt *Runtime, tc exec.TC) {
		hits := make([]atomic.Int32, 100)
		rt.Parallel(tc, 4, func(w *Worker) {
			w.ForEach(40, 100, ForOpt{Sched: Dynamic, Chunk: 3}, func(i int) {
				hits[i].Add(1)
			})
		})
		for i := 0; i < 40; i++ {
			if hits[i].Load() != 0 {
				t.Fatalf("iteration %d below lo executed", i)
			}
		}
		for i := 40; i < 100; i++ {
			if hits[i].Load() != 1 {
				t.Fatalf("iteration %d ran %d times", i, hits[i].Load())
			}
		}
	})
}

func TestForEmptyRange(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 4, Bind: true}, func(rt *Runtime, tc exec.TC) {
		ran := atomic.Int64{}
		rt.Parallel(tc, 4, func(w *Worker) {
			w.ForEach(5, 5, ForOpt{Sched: Static}, func(i int) { ran.Add(1) })
			w.ForEach(10, 3, ForOpt{Sched: Dynamic, Chunk: 2}, func(i int) { ran.Add(1) })
		})
		if ran.Load() != 0 {
			t.Fatalf("empty ranges executed %d iterations", ran.Load())
		}
	})
}

func TestSuccessiveLoopsInOneRegion(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		const loops = 10
		const iters = 64
		hits := make([]atomic.Int32, loops*iters)
		rt.Parallel(tc, 8, func(w *Worker) {
			for l := 0; l < loops; l++ {
				l := l
				w.ForEach(0, iters, ForOpt{Sched: Dynamic, Chunk: 4}, func(i int) {
					hits[l*iters+i].Add(1)
				})
			}
		})
		checkCoverage(t, hits, "successive loops")
	})
}

func TestForNoWaitDoesNotBarrier(t *testing.T) {
	// On the simulator: with NoWait, a thread with no iterations finishes
	// almost immediately even though another thread computes for long.
	layer := exec.NewSimLayer(sim.New(2, 1), simCosts())
	rt := New(layer, Options{MaxThreads: 2, Bind: true})
	var t0done, t1done int64
	_, err := layer.Run(func(tc exec.TC) {
		rt.Parallel(tc, 2, func(w *Worker) {
			w.For(0, 2, ForOpt{Sched: Static, NoWait: true}, func(lo, hi int) {
				if w.ThreadNum() == 0 {
					w.TC().Charge(1_000_000)
				}
			})
			if w.ThreadNum() == 0 {
				t0done = w.TC().Now()
			} else {
				t1done = w.TC().Now()
			}
		})
		rt.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if t1done >= t0done {
		t.Fatalf("nowait thread 1 (%d) should finish before thread 0 (%d)", t1done, t0done)
	}
}

func TestCriticalMutualExclusion(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		counter := 0
		rt.Parallel(tc, 8, func(w *Worker) {
			for k := 0; k < 100; k++ {
				w.Critical("", func() { counter++ })
			}
		})
		if counter != 800 {
			t.Errorf("counter = %d, want 800", counter)
		}
	})
}

func TestNamedCriticalsAreIndependentMutexes(t *testing.T) {
	layer := exec.NewSimLayer(sim.New(2, 1), simCosts())
	rt := New(layer, Options{MaxThreads: 2})
	a := rt.criticalEntry("a")
	b := rt.criticalEntry("b")
	if a == b {
		t.Fatal("different names must map to different mutexes")
	}
	if a != rt.criticalEntry("a") {
		t.Fatal("same name must map to the same mutex")
	}
}

// TestAtomicCounter: a plain read-modify-write inside Atomic is atomic
// on both layers — on real goroutines the race detector sees every
// increment ordered, and none is lost.
func TestAtomicCounter(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		n := 0
		rt.Parallel(tc, 8, func(w *Worker) {
			for k := 0; k < 50; k++ {
				w.Atomic(func() { n++ })
			}
		})
		if n != 400 {
			t.Errorf("counter = %d, want 400", n)
		}
	})
}

func TestSingleRunsOnce(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var singles atomic.Int64
		rt.Parallel(tc, 8, func(w *Worker) {
			for k := 0; k < 25; k++ {
				w.Single(false, func() { singles.Add(1) })
			}
		})
		if singles.Load() != 25 {
			t.Errorf("singles = %d, want 25", singles.Load())
		}
	})
}

func TestMasterOnlyThreadZero(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 4, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var who atomic.Int64
		who.Store(-1)
		rt.Parallel(tc, 4, func(w *Worker) {
			w.Master(func() { who.Store(int64(w.ThreadNum())) })
			w.Barrier()
		})
		if who.Load() != 0 {
			t.Errorf("master ran on thread %d", who.Load())
		}
	})
}

func TestCopyPrivateBroadcast(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var wrong atomic.Int64
		rt.Parallel(tc, 8, func(w *Worker) {
			for k := 0; k < 10; k++ {
				v := w.SingleCopyPrivate(func() any { return k * 100 })
				if v.(int) != k*100 {
					wrong.Add(1)
				}
			}
		})
		if wrong.Load() != 0 {
			t.Errorf("%d wrong copyprivate values", wrong.Load())
		}
	})
}

func TestSectionsEachRunsOnce(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 4, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var a, b, c atomic.Int64
		rt.Parallel(tc, 4, func(w *Worker) {
			w.Sections(false,
				func() { a.Add(1) },
				func() { b.Add(1) },
				func() { c.Add(1) },
			)
		})
		if a.Load() != 1 || b.Load() != 1 || c.Load() != 1 {
			t.Errorf("sections ran %d/%d/%d times", a.Load(), b.Load(), c.Load())
		}
	})
}

func TestOrderedSequence(t *testing.T) {
	for name, mk := range testLayers() {
		for _, sched := range []ForOpt{{Sched: Dynamic, Chunk: 1}, {Sched: Static, Chunk: 2}} {
			sched := sched
			t.Run(name+"/"+sched.Sched.String(), func(t *testing.T) {
				run(t, mk, Options{MaxThreads: 4, Bind: true}, func(rt *Runtime, tc exec.TC) {
					var mu sync.Mutex
					var order []int
					rt.Parallel(tc, 4, func(w *Worker) {
						w.ForOrdered(0, 40, sched, func(i int, ordered func(func())) {
							ordered(func() {
								mu.Lock()
								order = append(order, i)
								mu.Unlock()
							})
						})
					})
					if len(order) != 40 {
						t.Fatalf("ordered ran %d times", len(order))
					}
					for i, v := range order {
						if v != i {
							t.Fatalf("ordered sequence broken at %d: %v", i, order[:i+1])
						}
					}
				})
			})
		}
	}
}

func TestReduceOps(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var sum, prod, mx, mn float64
		rt.Parallel(tc, 8, func(w *Worker) {
			v := float64(w.ThreadNum() + 1)
			s := w.Reduce(ReduceSum, v)
			p := w.Reduce(ReduceProd, v)
			x := w.Reduce(ReduceMax, v)
			m := w.Reduce(ReduceMin, v)
			w.Master(func() { sum, prod, mx, mn = s, p, x, m })
		})
		if sum != 36 {
			t.Errorf("sum = %v, want 36", sum)
		}
		if prod != 40320 {
			t.Errorf("prod = %v, want 8!", prod)
		}
		if mx != 8 || mn != 1 {
			t.Errorf("max/min = %v/%v", mx, mn)
		}
	})
}

func TestReduceAllThreadsSeeResult(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 6, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var bad atomic.Int64
		rt.Parallel(tc, 6, func(w *Worker) {
			got := w.Reduce(ReduceSum, 1)
			if got != 6 {
				bad.Add(1)
			}
		})
		if bad.Load() != 0 {
			t.Errorf("%d threads saw wrong reduction", bad.Load())
		}
	})
}

func TestLocks(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		l := rt.NewLock()
		counter := 0
		rt.Parallel(tc, 8, func(w *Worker) {
			for k := 0; k < 50; k++ {
				l.Set(w)
				counter++
				l.Unset(w)
			}
		})
		if counter != 400 {
			t.Errorf("counter = %d", counter)
		}
	})
}

func TestNestLock(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 4, Bind: true}, func(rt *Runtime, tc exec.TC) {
		l := rt.NewNestLock()
		counter := 0
		rt.Parallel(tc, 4, func(w *Worker) {
			for k := 0; k < 20; k++ {
				if d := l.Set(w); d != 1 {
					t.Errorf("outer depth = %d", d)
				}
				if d := l.Set(w); d != 2 {
					t.Errorf("inner depth = %d", d)
				}
				counter++
				l.Unset(w)
				l.Unset(w)
			}
		})
		if counter != 80 {
			t.Errorf("counter = %d", counter)
		}
	})
}

func TestTasksAllExecute(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var done atomic.Int64
		rt.Parallel(tc, 8, func(w *Worker) {
			w.Master(func() {
				for k := 0; k < 200; k++ {
					w.Task(func(w *Worker) { done.Add(1) })
				}
			})
			w.Barrier()
		})
		if done.Load() != 200 {
			t.Errorf("tasks done = %d, want 200", done.Load())
		}
	})
}

func TestTaskwaitWaitsForChildren(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var violated atomic.Int64
		rt.Parallel(tc, 8, func(w *Worker) {
			w.Master(func() {
				var children atomic.Int64
				for k := 0; k < 50; k++ {
					w.Task(func(w *Worker) { children.Add(1) })
				}
				w.Taskwait()
				if children.Load() != 50 {
					violated.Add(1)
				}
			})
			w.Barrier()
		})
		if violated.Load() != 0 {
			t.Error("taskwait returned before children completed")
		}
	})
}

func TestNestedTasks(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var leaves atomic.Int64
		rt.Parallel(tc, 8, func(w *Worker) {
			w.Master(func() {
				for k := 0; k < 10; k++ {
					w.Task(func(w *Worker) {
						for j := 0; j < 10; j++ {
							w.Task(func(w *Worker) { leaves.Add(1) })
						}
						w.Taskwait()
					})
				}
			})
			w.Barrier()
		})
		if leaves.Load() != 100 {
			t.Errorf("leaves = %d, want 100", leaves.Load())
		}
	})
}

func TestTaskTreeRecursive(t *testing.T) {
	// The EPCC BENCH_TASK_TREE shape: binary recursion to a fixed depth.
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var leaves atomic.Int64
		var tree func(w *Worker, depth int)
		tree = func(w *Worker, depth int) {
			if depth == 0 {
				leaves.Add(1)
				return
			}
			w.Task(func(w *Worker) { tree(w, depth-1) })
			w.Task(func(w *Worker) { tree(w, depth-1) })
			w.Taskwait()
		}
		rt.Parallel(tc, 8, func(w *Worker) {
			w.Master(func() { tree(w, 7) })
			w.Barrier()
		})
		if leaves.Load() != 128 {
			t.Errorf("leaves = %d, want 128", leaves.Load())
		}
	})
}

func TestTaskIfUndeferred(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 4, Bind: true}, func(rt *Runtime, tc exec.TC) {
		rt.Parallel(tc, 4, func(w *Worker) {
			executedInline := false
			w.TaskIf(false, func(inner *Worker) {
				if inner != w {
					t.Error("undeferred task must run on the creating thread")
				}
				executedInline = true
			})
			if !executedInline {
				t.Error("undeferred task did not run immediately")
			}
			w.Barrier()
		})
	})
}

func TestTasksFromAllThreadsWithStealing(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var done atomic.Int64
		rt.Parallel(tc, 8, func(w *Worker) {
			// Imbalanced creation: only even threads create.
			if w.ThreadNum()%2 == 0 {
				for k := 0; k < 40; k++ {
					w.Task(func(w *Worker) {
						w.TC().Charge(1000)
						done.Add(1)
					})
				}
			}
			w.Barrier()
		})
		if done.Load() != 160 {
			t.Errorf("done = %d, want 160", done.Load())
		}
	})
}

func TestParseSchedule(t *testing.T) {
	for _, tt := range []struct {
		in    string
		kind  Schedule
		chunk int
		ok    bool
	}{
		{"static", Static, 0, true},
		{"dynamic,4", Dynamic, 4, true},
		{"GUIDED, 8", Guided, 8, true},
		{"bogus", Static, 0, false},
		{"dynamic,x", Static, 0, false},
	} {
		kind, chunk, err := ParseSchedule(tt.in)
		if tt.ok != (err == nil) {
			t.Fatalf("%q: err = %v", tt.in, err)
		}
		if err == nil && (kind != tt.kind || chunk != tt.chunk) {
			t.Fatalf("%q -> %v,%d", tt.in, kind, chunk)
		}
	}
}

func TestOptionsEnv(t *testing.T) {
	env := map[string]string{"OMP_NUM_THREADS": "12", "OMP_SCHEDULE": "guided,2"}
	var o Options
	if err := o.Env(func(k string) (string, bool) { v, ok := env[k]; return v, ok }); err != nil {
		t.Fatal(err)
	}
	if o.DefaultThreads != 12 || o.Schedule != Guided || o.Chunk != 2 {
		t.Fatalf("opts = %+v", o)
	}
	env["OMP_NUM_THREADS"] = "zap"
	if err := o.Env(func(k string) (string, bool) { v, ok := env[k]; return v, ok }); err == nil {
		t.Fatal("bad OMP_NUM_THREADS must error")
	}
}

func TestSimDeterministicRegion(t *testing.T) {
	runOnce := func() int64 {
		layer := exec.NewSimLayer(sim.New(8, 5), simCosts())
		rt := New(layer, Options{MaxThreads: 8, Bind: true})
		elapsed, err := layer.Run(func(tc exec.TC) {
			rt.Parallel(tc, 8, func(w *Worker) {
				w.ForEach(0, 512, ForOpt{Sched: Dynamic, Chunk: 4}, func(i int) {
					w.TC().Charge(500)
				})
				w.Reduce(ReduceSum, float64(w.ThreadNum()))
			})
			rt.Close(tc)
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}

func TestSimParallelSpeedsUpCompute(t *testing.T) {
	elapsedFor := func(n int) int64 {
		layer := exec.NewSimLayer(sim.New(8, 5), simCosts())
		rt := New(layer, Options{MaxThreads: 8, Bind: true})
		elapsed, err := layer.Run(func(tc exec.TC) {
			rt.Parallel(tc, n, func(w *Worker) {
				w.ForEach(0, 64, ForOpt{Sched: Static}, func(i int) {
					w.TC().Charge(100_000)
				})
			})
			rt.Close(tc)
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	t1, t8 := elapsedFor(1), elapsedFor(8)
	speedup := float64(t1) / float64(t8)
	if speedup < 6 {
		t.Fatalf("speedup on 8 simulated CPUs = %.2f, want > 6", speedup)
	}
}

func TestTreeBarrierCorrectAndFasterAtScale(t *testing.T) {
	run := func(algo BarrierAlgo, threads int) int64 {
		layer := exec.NewSimLayer(sim.New(threads, 3), exec.Costs{
			ThreadSpawnNS: 2000, FutexWaitEntryNS: 300, FutexWakeEntryNS: 300,
			FutexWakeLatencyNS: 1500, FutexWakeStaggerNS: 100,
			AtomicRMWNS: 20, CacheLineXferNS: 45,
		})
		rt := New(layer, Options{MaxThreads: threads, Bind: true, BarrierAlgo: algo})
		var count atomic.Int64
		elapsed, err := layer.Run(func(tc exec.TC) {
			rt.Parallel(tc, threads, func(w *Worker) {
				for r := 0; r < 30; r++ {
					count.Add(1)
					w.Barrier()
				}
			})
			rt.Close(tc)
		})
		if err != nil {
			t.Fatal(err)
		}
		if count.Load() != int64(threads*30) {
			t.Fatalf("%v barrier lost arrivals: %d", algo, count.Load())
		}
		return elapsed
	}
	flat, tree := run(BarrierFlat, 64), run(BarrierTree, 64)
	if tree >= flat {
		t.Fatalf("tree barrier (%d) must beat flat (%d) at 64 threads", tree, flat)
	}
	// At small scale the difference must not invert correctness.
	run(BarrierTree, 3)
	run(BarrierTree, 2)
}

func TestTracerRecordsRegionsAndLoops(t *testing.T) {
	tr := trace.New()
	sp := ompt.NewSpine()
	trace.Attach(tr, sp)
	layer := exec.NewSimLayer(sim.New(4, 1), simCosts())
	rt := New(layer, Options{MaxThreads: 4, Bind: true, Spine: sp})
	_, err := layer.Run(func(tc exec.TC) {
		rt.Parallel(tc, 4, func(w *Worker) {
			w.ForEach(0, 64, ForOpt{Sched: Dynamic, Chunk: 4}, func(i int) {
				w.TC().Charge(500)
			})
		})
		rt.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	var regions, loops int
	for _, e := range events {
		switch {
		case e.Name == "parallel#1":
			regions++
			if e.Dur <= 0 {
				t.Fatal("region span without duration")
			}
		case e.Name == "for/dynamic":
			loops++
		}
	}
	if regions != 1 {
		t.Fatalf("region spans = %d", regions)
	}
	if loops != 4 {
		t.Fatalf("loop spans = %d, want one per thread", loops)
	}
}

// TestTracerNestedWaitSpans: sibling inner teams each have a thread
// 0..2, so a tracer pairing SyncAcquire/SyncAcquired by thread number
// alone lets their open waits overwrite each other. Every SyncAcquired
// must close exactly one wait/* span, and every region one parallel
// span.
func TestTracerNestedWaitSpans(t *testing.T) {
	tr := trace.New()
	sp := ompt.NewSpine()
	trace.Attach(tr, sp)
	rec := ompt.NewRecorder(sp, ompt.SyncAcquired, ompt.ParallelEnd)
	layer := exec.NewSimLayer(sim.New(8, 1), simCosts())
	rt := New(layer, Options{MaxThreads: 8, Bind: true, MaxActiveLevels: 2, Spine: sp})
	_, err := layer.Run(func(tc exec.TC) {
		rt.Parallel(tc, 2, func(ow *Worker) {
			ow.Parallel(3, func(iw *Worker) {
				iw.TC().Charge(int64(300 * (iw.ThreadNum() + 1)))
				iw.Barrier()
			})
		})
		rt.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	var acquired, ends int
	for _, ev := range rec.Events() {
		if ev.Kind == ompt.SyncAcquired {
			acquired++
		} else {
			ends++
		}
	}
	var waits, regions int
	for _, e := range tr.Events() {
		switch {
		case strings.HasPrefix(e.Name, "wait/"):
			waits++
		case strings.HasPrefix(e.Name, "parallel#"):
			regions++
		}
	}
	if acquired == 0 || waits != acquired {
		t.Errorf("wait spans = %d, want one per SyncAcquired (%d)", waits, acquired)
	}
	if regions != ends {
		t.Errorf("parallel spans = %d, want one per ParallelEnd (%d)", regions, ends)
	}
}
