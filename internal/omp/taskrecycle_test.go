package omp

import (
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/interweaving/komp/internal/exec"
)

// These tests pin the recycling of task records (task.go: newTask,
// unref): a record goes back to its owner's free lists only once nothing
// can touch it any more, whichever worker — of whichever team — drops
// the last reference, and a warm runtime creates tasks without
// allocating.

// TestTaskRecordLayout: creating and freeing a task write only the first
// cache line of its record, and the record fits the 128-byte size
// class, whose objects are cache-line aligned.
func TestTaskRecordLayout(t *testing.T) {
	var tk task
	if sz := unsafe.Sizeof(tk); sz > 128 {
		t.Errorf("task record is %d bytes, want <= 128", sz)
	}
	if end := unsafe.Offsetof(tk.hasDeps) + 1; end > 64 {
		t.Errorf("the fields creation and free write end at byte %d, want <= 64", end)
	}
}

// TestUnrefPanicsOnUnderflow: releasing a record more often than it was
// referenced is caught, not silently pushed onto a free list twice.
func TestUnrefPanicsOnUnderflow(t *testing.T) {
	w := &Worker{}
	tk := w.newTask()
	tk.refs.Add(1) // a second holder
	w.unref(tk)
	if w.freeTasks != nil {
		t.Fatal("a record with a holder left was freed")
	}
	w.unref(tk)
	if w.freeTasks != tk {
		t.Fatal("the last release did not free the record to its owner")
	}
	defer func() {
		if recover() == nil {
			t.Error("a release of a freed record did not panic")
		}
	}()
	w.unref(tk)
}

// recycleFib computes fib(n) with a task per call and a taskwait per
// level, counting the tasks it creates.
func recycleFib(w *Worker, n int, created *atomic.Int64) int {
	if n < 2 {
		return n
	}
	var a, b int
	created.Add(2)
	w.Task(func(w *Worker) { a = recycleFib(w, n-1, created) })
	w.Task(func(w *Worker) { b = recycleFib(w, n-2, created) })
	w.Taskwait()
	return a + b
}

// orphanTree creates a tree of tasks fanout wide and depth deep whose
// parents never wait: every parent finishes before its children, which
// still hold their references to it. Each leaf marks its slot.
func orphanTree(w *Worker, depth, fanout, slot int, hits []atomic.Int32, created *atomic.Int64) {
	if depth == 0 {
		hits[slot].Add(1)
		return
	}
	for i := 0; i < fanout; i++ {
		child := slot*fanout + i
		created.Add(1)
		w.Task(func(w *Worker) { orphanTree(w, depth-1, fanout, child, hits, created) })
	}
}

// TestTaskRecycleStress runs every shape of record lifetime on one team,
// region after region, so records cross between workers and lives: a
// parent finishing before its children, deep fib, undeferred tasks held
// on a dependence, and taskgroup cancels that discard bodies. Every task
// is accounted for exactly once (TasksRun), every body runs at most
// once, and the non-cancelled ones exactly once. Run it under -race
// -cpu 1,2,4 (make race-stress).
func TestTaskRecycleStress(t *testing.T) {
	const (
		regions = 6
		depth   = 4
		fanout  = 3
		leaves  = 81 // fanout^depth
		held    = 40
		members = 48
	)
	forBothLayers(t, Options{MaxThreads: 4, Bind: true, Cancellation: true}, func(rt *Runtime, tc exec.TC) {
		var created atomic.Int64
		for r := 0; r < regions; r++ {
			hits := make([]atomic.Int32, 4*leaves)
			var heldRan, heldBad, memberRan atomic.Int32
			fibs := make([]int, 4)
			rt.Parallel(tc, 4, func(w *Worker) {
				id := w.ThreadNum()
				created.Add(1)
				w.Task(func(w *Worker) { orphanTree(w, depth, fanout, id, hits, &created) })
				fibs[id] = recycleFib(w, 10+id%2, &created)
				if id == 1 {
					// A deferred writer, then an undeferred reader held on it:
					// the reader's record is woken by the writer's release.
					var x int
					for k := 1; k <= held; k++ {
						created.Add(2)
						w.TaskWith(TaskOpt{Depend: []Dep{Out(&x)}}, func(tw *Worker) {
							tw.TC().Charge(300)
							x = k
						})
						w.TaskWith(TaskOpt{Undeferred: true, Depend: []Dep{In(&x)}}, func(*Worker) {
							heldRan.Add(1)
							if x != k {
								heldBad.Add(1)
							}
						})
					}
				}
				if id == 2 {
					w.Taskgroup(func(gw *Worker) {
						for k := 0; k < members; k++ {
							created.Add(1)
							gw.Task(func(tw *Worker) {
								tw.TC().Charge(500)
								if memberRan.Add(1) == 3 {
									tw.Cancel(CancelTaskgroup)
								}
							})
						}
					})
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Errorf("region %d: leaf %d ran %d times, want 1", r, i, got)
					return
				}
			}
			for id, got := range fibs {
				if want := []int{55, 89}[id%2]; got != want {
					t.Errorf("region %d: thread %d fib = %d, want %d", r, id, got, want)
				}
			}
			if heldRan.Load() != held || heldBad.Load() != 0 {
				t.Errorf("region %d: held readers ran %d (want %d), %d saw the wrong writer",
					r, heldRan.Load(), held, heldBad.Load())
			}
			if got := memberRan.Load(); got < 3 || got > members {
				t.Errorf("region %d: cancelled taskgroup ran %d of %d bodies", r, got, members)
			}
		}
		if got, want := rt.TasksRun.Load(), created.Load(); got != want {
			t.Errorf("TasksRun = %d, want %d tasks created", got, want)
		}
	})
}

// TestTaskRecordsAllocFree: on a warm team, a region whose tasks — with
// and without depend clauses — use closures and clause lists built
// beforehand allocates nothing: records, successor lists and tracker
// entries all come back from the free lists.
func TestTaskRecordsAllocFree(t *testing.T) {
	const (
		tasks = 1000
		batch = 50 // below the deque's initial capacity: no ring growth
		cells = 16
	)
	layer := exec.NewRealLayer(2)
	rt := New(layer, Options{MaxThreads: 2, Bind: true})
	_, err := layer.Run(func(tc exec.TC) {
		defer rt.Close(tc)
		var ran atomic.Int64
		var grid [cells]int64
		fns := make([]func(*Worker), cells)
		deps := make([][]Dep, cells)
		for c := range fns {
			fns[c] = func(*Worker) { ran.Add(1) }
			deps[c] = []Dep{InOut(&grid[c]), In(&grid[(c+cells-1)%cells])}
		}
		plain := func(w *Worker) {
			if w.ThreadNum() != 0 {
				return
			}
			for i := 0; i < tasks; i++ {
				w.Task(fns[i%cells])
				if i%batch == batch-1 {
					w.Taskwait()
				}
			}
		}
		depend := func(w *Worker) {
			if w.ThreadNum() != 0 {
				return
			}
			for i := 0; i < tasks; i++ {
				w.TaskWith(TaskOpt{Depend: deps[i%cells]}, fns[i%cells])
				if i%batch == batch-1 {
					w.Taskwait()
				}
			}
		}
		for _, c := range []struct {
			name string
			body func(*Worker)
		}{{"without depend", plain}, {"with depend", depend}} {
			for i := 0; i < 20; i++ {
				rt.Parallel(tc, 2, c.body)
			}
			before := ran.Load()
			if avg := testing.AllocsPerRun(50, func() { rt.Parallel(tc, 2, c.body) }); avg != 0 {
				t.Errorf("region of %d tasks %s on a warm team: %v allocs, want 0", tasks, c.name, avg)
			}
			if got := ran.Load() - before; got != 51*tasks {
				t.Errorf("%s: %d tasks ran in 51 regions, want %d", c.name, got, 51*tasks)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestImplicitDepTrackerBounded: the implicit task outlives its region
// on a hot team, so its dependence tracker must be emptied per region —
// not keep every address a depend clause ever named (and the last task
// to name it, closure and all). Within a region, a finished task a slot
// still names is not recycled: the slot's reference holds it.
func TestImplicitDepTrackerBounded(t *testing.T) {
	const regions = 200
	forBothLayers(t, Options{MaxThreads: 2, Bind: true}, func(rt *Runtime, tc exec.TC) {
		worst := 0
		for r := 0; r < regions; r++ {
			rt.Parallel(tc, 2, func(w *Worker) {
				if w.ThreadNum() != 0 {
					return
				}
				// Every region names a fresh location.
				p := new([64]int64)
				w.TaskWith(TaskOpt{Depend: []Dep{Out(p)}}, func(*Worker) { p[0] = 1 })
				w.TaskWith(TaskOpt{Depend: []Dep{In(p)}}, func(*Worker) { _ = p[0] })
				w.Taskwait()
				dt := w.currentTask().deps
				worst = max(worst, len(dt.last))
				e := dt.last[p]
				if e == nil || e.lastOut == nil || len(e.readers) != 1 {
					t.Errorf("region %d: tracker entry %+v, want the writer and one reader", r, e)
					return
				}
				// Taskwait can return while a child is still inside
				// finishTask, so its own reference may not be gone yet;
				// the slot's must be there either way.
				for _, named := range append([]*task{e.lastOut}, e.readers...) {
					if n := named.refs.Load(); named.fn == nil || n < 1 {
						t.Errorf("region %d: a finished task its slot names was recycled (refs %d)", r, n)
					}
				}
			})
		}
		if worst != 1 {
			t.Errorf("implicit task's tracker held up to %d addresses over %d regions, want 1", worst, regions)
		}
	})
}

// TestCrossTeamStealFlood forces the nested help path: outer thread 0
// floods its deque and then only waits, outer thread 1 forks an inner
// team whose deques stay empty, and the inner workers drain the flood by
// stealing across the team boundary (stealCrossTeam → sweepTeam). Every
// task runs exactly once, every one on the inner team, and each record
// is freed by a worker of another team than its owner's.
func TestCrossTeamStealFlood(t *testing.T) {
	const flood = 400
	forBothLayers(t, Options{MaxThreads: 4, Bind: true, MaxActiveLevels: 2}, func(rt *Runtime, tc exec.TC) {
		for r := 0; r < 3; r++ {
			var hits [flood]atomic.Int32
			var remaining, ready, outerRan atomic.Int64
			remaining.Store(flood)
			steals := rt.TaskSteals.Load()
			rt.Parallel(tc, 2, func(w *Worker) {
				switch w.ThreadNum() {
				case 0:
					for i := 0; i < flood; i++ {
						w.Task(func(tw *Worker) {
							tw.TC().Charge(200)
							hits[i].Add(1)
							if tw.Level() != 2 {
								outerRan.Add(1)
							}
							remaining.Add(-1)
						})
					}
					ready.Store(1)
					for remaining.Load() > 0 {
						w.tc.Yield()
					}
				case 1:
					for ready.Load() == 0 {
						w.tc.Yield()
					}
					w.Parallel(2, func(iw *Worker) {
						for remaining.Load() > 0 {
							if !iw.runOneTask() {
								iw.tc.Yield()
							}
						}
					})
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Errorf("region %d: task %d ran %d times, want 1", r, i, got)
					return
				}
			}
			if n := outerRan.Load(); n != 0 {
				t.Errorf("region %d: %d flood tasks ran on the outer team, want every one stolen across", r, n)
			}
			if got := rt.TaskSteals.Load() - steals; got != flood {
				t.Errorf("region %d: %d steals, want %d cross-team steals", r, got, flood)
			}
		}
	})
}
