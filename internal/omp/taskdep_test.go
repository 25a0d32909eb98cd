package omp

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/sim"
)

// stampBoard records, per task index, a globally ordered start and end
// stamp; dependence tests assert end(pred) < start(succ) for every edge.
type stampBoard struct {
	seq   atomic.Int64
	start []atomic.Int64
	end   []atomic.Int64
}

func newStampBoard(n int) *stampBoard {
	return &stampBoard{start: make([]atomic.Int64, n), end: make([]atomic.Int64, n)}
}

func (b *stampBoard) body(i int) func(*Worker) {
	return func(w *Worker) {
		b.start[i].Store(b.seq.Add(1))
		w.TC().Charge(200)
		b.end[i].Store(b.seq.Add(1))
	}
}

func (b *stampBoard) checkEdges(t *testing.T, edges [][2]int) {
	t.Helper()
	for _, e := range edges {
		pe, ss := b.end[e[0]].Load(), b.start[e[1]].Load()
		if pe == 0 || ss == 0 {
			t.Fatalf("task %d or %d never ran (end=%d start=%d)", e[0], e[1], pe, ss)
		}
		if pe >= ss {
			t.Errorf("dependence violated: task %d finished at %d, successor %d started at %d", e[0], pe, e[1], ss)
		}
	}
}

func TestTaskDependChain(t *testing.T) {
	// out -> {in, in} -> inout -> out over one location: the writer runs
	// before the readers, the readers before the next writer.
	edges := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}}
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var x int
		board := newStampBoard(5)
		rt.Parallel(tc, 8, func(w *Worker) {
			w.Master(func() {
				w.TaskWith(TaskOpt{Depend: []Dep{Out(&x)}}, board.body(0))
				w.TaskWith(TaskOpt{Depend: []Dep{In(&x)}}, board.body(1))
				w.TaskWith(TaskOpt{Depend: []Dep{In(&x)}}, board.body(2))
				w.TaskWith(TaskOpt{Depend: []Dep{InOut(&x)}}, board.body(3))
				w.TaskWith(TaskOpt{Depend: []Dep{Out(&x)}}, board.body(4))
			})
			w.Barrier()
		})
		board.checkEdges(t, edges)
	})
}

func TestTaskDependDistinctLocationsUnordered(t *testing.T) {
	// Tasks naming different locations carry no edges: both must run,
	// and the runtime must not have created any dependence edges.
	forBothLayers(t, Options{MaxThreads: 4, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var x, y int
		var done atomic.Int64
		before := rt.TaskDepEdges.Load()
		rt.Parallel(tc, 4, func(w *Worker) {
			w.Master(func() {
				w.TaskWith(TaskOpt{Depend: []Dep{Out(&x)}}, func(*Worker) { done.Add(1) })
				w.TaskWith(TaskOpt{Depend: []Dep{Out(&y)}}, func(*Worker) { done.Add(1) })
			})
			w.Barrier()
		})
		if done.Load() != 2 {
			t.Fatalf("ran %d tasks, want 2", done.Load())
		}
		if got := rt.TaskDepEdges.Load() - before; got != 0 {
			t.Errorf("distinct locations created %d edges, want 0", got)
		}
	})
}

// depPlan is a randomly generated dependence workload plus its model
// edge set (the ordering constraints the spec implies).
type depPlan struct {
	clauses [][]Dep  // per task, over shared addresses
	edges   [][2]int // deduplicated (pred, succ) pairs
}

// genDepPlan mirrors registerDeps' resolution rules on a model
// last-writer/readers table while generating random clauses.
func genDepPlan(rng *rand.Rand, nTasks, nAddrs int, addrs []*int) depPlan {
	p := depPlan{clauses: make([][]Dep, nTasks)}
	type entry struct {
		lastOut int
		readers []int
	}
	model := make([]entry, nAddrs)
	for i := range model {
		model[i].lastOut = -1
	}
	seen := map[[2]int]bool{}
	addEdge := func(pred, succ int) {
		if pred < 0 || pred == succ || seen[[2]int{pred, succ}] {
			return
		}
		seen[[2]int{pred, succ}] = true
		p.edges = append(p.edges, [2]int{pred, succ})
	}
	for i := 0; i < nTasks; i++ {
		nc := 1 + rng.Intn(2)
		for c := 0; c < nc; c++ {
			a := rng.Intn(nAddrs)
			mode := DepMode(rng.Intn(3))
			p.clauses[i] = append(p.clauses[i], Dep{Mode: mode, Addr: addrs[a]})
			e := &model[a]
			switch mode {
			case DepIn:
				addEdge(e.lastOut, i)
				e.readers = append(e.readers, i)
			default:
				addEdge(e.lastOut, i)
				for _, r := range e.readers {
					addEdge(r, i)
				}
				e.lastOut = i
				e.readers = e.readers[:0]
			}
		}
	}
	return p
}

func TestTaskDependFuzz(t *testing.T) {
	// Random in/out/inout chains over a handful of locations: every
	// model edge must be respected by the observed start/end stamps, on
	// both execution layers (the real-layer runs double as the -race
	// workload for the registration/release protocol).
	const nTasks, nAddrs = 48, 4
	addrs := make([]*int, nAddrs)
	for i := range addrs {
		addrs[i] = new(int)
	}
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		plan := genDepPlan(rng, nTasks, nAddrs, addrs)
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
				board := newStampBoard(nTasks)
				rt.Parallel(tc, 8, func(w *Worker) {
					w.Master(func() {
						for i := 0; i < nTasks; i++ {
							w.TaskWith(TaskOpt{Depend: plan.clauses[i]}, board.body(i))
						}
					})
					w.Barrier()
				})
				board.checkEdges(t, plan.edges)
			})
		})
	}
}

func TestTaskDependSimStreamDeterministic(t *testing.T) {
	// The same seeded plan on the same simulator seed must produce the
	// same task event stream, byte for byte — the property the tasking
	// ablation's two-run diff rests on.
	addrs := []*int{new(int), new(int), new(int)}
	plan := genDepPlan(rand.New(rand.NewSource(7)), 32, 3, addrs)
	capture := func() []string {
		var mu sync.Mutex
		var events []string
		sp := ompt.NewSpine()
		sp.On(func(ev ompt.Event) {
			mu.Lock()
			events = append(events, fmt.Sprintf("%d:%d:%d:%d", ev.Kind, ev.Thread, ev.Obj, ev.Arg0))
			mu.Unlock()
		}, ompt.TaskCreate, ompt.TaskSchedule, ompt.TaskComplete, ompt.TaskSteal,
			ompt.TaskDependence, ompt.TaskgroupBegin, ompt.TaskgroupEnd)
		layer := exec.NewSimLayer(sim.New(8, 11), simCosts())
		rt := New(layer, Options{MaxThreads: 8, Bind: true, Spine: sp})
		_, err := layer.Run(func(tc exec.TC) {
			rt.Parallel(tc, 8, func(w *Worker) {
				w.Master(func() {
					w.Taskgroup(func(gw *Worker) {
						for i := range plan.clauses {
							gw.TaskWith(TaskOpt{Depend: plan.clauses[i]}, func(tw *Worker) { tw.TC().Charge(300) })
						}
					})
				})
				w.Barrier()
			})
			rt.Close(tc)
		})
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
	a, b := capture(), capture()
	if len(a) != len(b) {
		t.Fatalf("event stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %s vs %s", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("no task events captured")
	}
}

func TestTaskgroupWaitsForDescendants(t *testing.T) {
	// A taskgroup waits for all descendants of its members — including
	// grandchildren created without any intervening taskwait.
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var leaves atomic.Int64
		var violated atomic.Int64
		rt.Parallel(tc, 8, func(w *Worker) {
			w.Master(func() {
				w.Taskgroup(func(gw *Worker) {
					for i := 0; i < 5; i++ {
						gw.Task(func(cw *Worker) {
							for j := 0; j < 4; j++ {
								cw.Task(func(*Worker) { leaves.Add(1) })
							}
							// No taskwait: the group alone must hold the region.
						})
					}
				})
				if leaves.Load() != 20 {
					violated.Store(leaves.Load())
				}
			})
			w.Barrier()
		})
		if v := violated.Load(); v != 0 {
			t.Errorf("taskgroup returned with %d/20 descendants done", v)
		}
	})
}

func TestTaskgroupIgnoresOutsideSiblings(t *testing.T) {
	// A task created before the group opens is not a member: the group
	// must complete without it. The sibling charges far more virtual
	// time than the whole group, so on the simulator it is provably
	// still in flight (or unstarted) when the group closes — unless the
	// master itself picked it up at a scheduling point, which the spec
	// permits; that case is skipped rather than misreported. Charge is a
	// no-op on the real layer, where "still in flight" would be
	// scheduling luck: there only completion is asserted.
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var sibDone, members atomic.Int64
		var sibRunBy atomic.Int64
		sibRunBy.Store(-1)
		var violated atomic.Int64
		rt.Parallel(tc, 8, func(w *Worker) {
			w.Master(func() {
				w.Task(func(tw *Worker) {
					sibRunBy.Store(int64(tw.ThreadNum()))
					tw.TC().Charge(5_000_000)
					sibDone.Store(1)
				})
				w.Taskgroup(func(gw *Worker) {
					for i := 0; i < 20; i++ {
						gw.Task(func(tw *Worker) {
							tw.TC().Charge(1000)
							members.Add(1)
						})
					}
				})
				if members.Load() != 20 {
					violated.Store(1) // the group's own tasks were not awaited
				}
				if onSimulator(rt) && sibRunBy.Load() != 0 && sibDone.Load() == 1 {
					violated.Store(2) // the group waited on the unrelated sibling
				}
			})
			w.Barrier()
		})
		switch violated.Load() {
		case 1:
			t.Error("taskgroup returned before its own tasks completed")
		case 2:
			t.Error("taskgroup end waited for a task created before the group opened")
		}
		if sibDone.Load() != 1 {
			t.Error("the outside sibling never completed")
		}
	})
}

func TestTaskloopNotBlockedByPriorSibling(t *testing.T) {
	// Regression: taskloop's implicit wait used to be a taskwait, which
	// waits on *all* children of the current task — so a long-running
	// task created before the taskloop stalled it. With the implicit
	// taskgroup it must return as soon as its own tasks are done. As
	// above, the sibling is provably still in flight only on the
	// simulator's clock; the real layer asserts coverage and completion.
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var sibDone atomic.Int64
		var sibRunBy atomic.Int64
		sibRunBy.Store(-1)
		var covered atomic.Int64
		var violated atomic.Int64
		rt.Parallel(tc, 8, func(w *Worker) {
			w.Master(func() {
				w.Task(func(tw *Worker) {
					sibRunBy.Store(int64(tw.ThreadNum()))
					tw.TC().Charge(5_000_000)
					sibDone.Store(1)
				})
				w.Taskloop(0, 40, TaskloopOpt{}, func(tw *Worker, i int) {
					tw.TC().Charge(1000)
					covered.Add(1)
				})
				if covered.Load() != 40 {
					violated.Store(1) // the loop's own tasks were not awaited
				}
				if onSimulator(rt) && sibRunBy.Load() != 0 && sibDone.Load() == 1 {
					violated.Store(2) // the loop waited on the unrelated sibling
				}
			})
			w.Barrier()
		})
		switch violated.Load() {
		case 1:
			t.Error("taskloop returned before its own tasks completed")
		case 2:
			t.Error("taskloop blocked on a pre-existing sibling task")
		}
		if sibDone.Load() != 1 {
			t.Error("the prior sibling never completed")
		}
	})
}

func TestTaskDependExactlyOnceUnderChurn(t *testing.T) {
	// Regression for the registration/release race: a predecessor that
	// finishes (on a thief) while the encountering thread is still
	// registering a successor's edges must release the successor exactly
	// once. Near-empty predecessor bodies maximize the window; a double
	// release runs the successor twice and underflows the pending
	// counters. The real-layer run doubles as the -race workload.
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		const rounds = 300
		runs := make([]atomic.Int64, rounds)
		rt.Parallel(tc, 8, func(w *Worker) {
			w.Master(func() {
				var x int
				for i := 0; i < rounds; i++ {
					i := i
					w.TaskWith(TaskOpt{Depend: []Dep{Out(&x)}}, func(*Worker) {})
					w.TaskWith(TaskOpt{Depend: []Dep{InOut(&x)}}, func(*Worker) { runs[i].Add(1) })
				}
			})
			w.Barrier()
		})
		for i := range runs {
			if n := runs[i].Load(); n != 1 {
				t.Fatalf("round %d successor ran %d times, want 1", i, n)
			}
		}
	})
}

func TestUndeferredTaskWithDepsCompletesBeforeReturn(t *testing.T) {
	// An undeferred task (if(false)) held on dependences must still
	// complete before the encountering thread passes the construct, and
	// must run on the encountering thread — not migrate to whichever
	// worker releases it.
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var violated atomic.Int64
		rt.Parallel(tc, 8, func(w *Worker) {
			w.Master(func() {
				var x int
				var predDone, ran atomic.Int64
				w.TaskWith(TaskOpt{Depend: []Dep{Out(&x)}}, func(tw *Worker) {
					tw.TC().Charge(100_000)
					predDone.Store(1)
				})
				w.TaskWith(TaskOpt{Undeferred: true, Depend: []Dep{In(&x)}}, func(tw *Worker) {
					if predDone.Load() != 1 {
						violated.Store(1) // ran before its predecessor finished
					}
					if tw != w {
						violated.Store(2) // migrated off the encountering thread
					}
					ran.Store(1)
				})
				if ran.Load() != 1 {
					violated.Store(3) // construct returned before the body ran
				}
			})
			w.Barrier()
		})
		if v := violated.Load(); v != 0 {
			t.Errorf("undeferred-with-deps semantics violated (code %d)", v)
		}
	})
}

func TestTaskgroupPanicRestoresCurrentGroup(t *testing.T) {
	// A panic unwinding out of a taskgroup body to a recover in the
	// region must not leave curGroup pointing at the dead group, which
	// would silently enroll every later task in a group nobody waits on.
	forBothLayers(t, Options{MaxThreads: 4, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var after atomic.Int64
		var dangles atomic.Int64
		rt.Parallel(tc, 4, func(w *Worker) {
			w.Master(func() {
				func() {
					defer func() { _ = recover() }()
					w.Taskgroup(func(*Worker) {
						panic("taskgroup body panics")
					})
				}()
				if w.curGroup != nil {
					dangles.Store(1)
				}
				w.Task(func(*Worker) { after.Add(1) })
				w.Taskwait()
			})
			w.Barrier()
		})
		if dangles.Load() != 0 {
			t.Error("curGroup still points at the dead group after a recovered panic")
		}
		if after.Load() != 1 {
			t.Errorf("post-panic task ran %d times, want 1", after.Load())
		}
	})
}

func TestTaskFinalRunsDescendantsUndeferred(t *testing.T) {
	// final propagates: tasks created inside a final task are included
	// tasks — they execute immediately on the encountering thread.
	forBothLayers(t, Options{MaxThreads: 4, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var violated atomic.Int64
		rt.Parallel(tc, 4, func(w *Worker) {
			w.Master(func() {
				w.TaskWith(TaskOpt{Final: true}, func(fw *Worker) {
					inline := false
					fw.Task(func(cw *Worker) {
						if cw != fw {
							violated.Store(1) // ran on a different worker
						}
						inline = true
					})
					if !inline {
						violated.Store(2) // deferred despite the final ancestor
					}
				})
				w.Taskwait()
			})
			w.Barrier()
		})
		if v := violated.Load(); v != 0 {
			t.Errorf("included-task semantics violated (code %d)", v)
		}
	})
}

func TestTaskCutoffThrottles(t *testing.T) {
	// With a queue-depth cutoff, a single-producer flood must trip the
	// throttle (counted in TaskCutoffs) and still run every task. The
	// counter assertion is simulator-only: on the real layer thieves can
	// drain the deque fast enough that the depth never reaches the bound.
	layers := testLayers()
	for _, name := range []string{"real", "sim"} {
		mk := layers[name]
		t.Run(name, func(t *testing.T) {
			run(t, mk, Options{MaxThreads: 8, Bind: true, TaskCutoff: 4}, func(rt *Runtime, tc exec.TC) {
				var done atomic.Int64
				rt.Parallel(tc, 8, func(w *Worker) {
					w.Master(func() {
						for i := 0; i < 100; i++ {
							w.Task(func(tw *Worker) {
								tw.TC().Charge(2000)
								done.Add(1)
							})
						}
					})
					w.Barrier()
				})
				if done.Load() != 100 {
					t.Fatalf("ran %d tasks, want 100", done.Load())
				}
				if name == "sim" && rt.TaskCutoffs.Load() == 0 {
					t.Error("cutoff 4 never tripped under a 100-task single-producer flood")
				}
			})
		})
	}
}

func TestStealRotatesOnFailedSweep(t *testing.T) {
	// A failed sweep must still advance the rotation start so the next
	// sweep probes a shifted victim window (the stealRR regression).
	// Pins the round-robin sweep: placed teams default to nearest-first,
	// which rotates per-ring cursors instead (TestStealNearestRotates).
	run(t, testLayers()["sim"], Options{MaxThreads: 4, Bind: true, StealOrder: StealRR}, func(rt *Runtime, tc exec.TC) {
		var violated atomic.Int64
		rt.Parallel(tc, 4, func(w *Worker) {
			before := w.stealRR
			if w.runOneTask() {
				violated.Store(1) // nothing was queued; a sweep cannot succeed
				return
			}
			if w.stealRR != (before+1)%4 {
				violated.Store(2)
			}
		})
		switch violated.Load() {
		case 1:
			t.Fatal("runOneTask claimed success on an empty pool")
		case 2:
			t.Error("failed sweep did not rotate the steal start")
		}
	})
}

func TestTaskEnvParsing(t *testing.T) {
	lookupIn := func(env map[string]string) func(string) (string, bool) {
		return func(k string) (string, bool) { v, ok := env[k]; return v, ok }
	}
	var o Options
	good := map[string]string{
		"KOMP_TASK_CUTOFF":      "16",
		"KOMP_TASK_STEAL_TRIES": "4",
	}
	if err := o.Env(lookupIn(good)); err != nil {
		t.Fatal(err)
	}
	if o.TaskDeque != DequeChaseLev || o.TaskCutoff != 16 || o.TaskStealTries != 4 {
		t.Fatalf("opts = %+v", o)
	}
	for _, bad := range []map[string]string{
		{"KOMP_TASK_CUTOFF": "-1"},
		{"KOMP_TASK_CUTOFF": "many"},
		{"KOMP_TASK_STEAL_TRIES": "-3"},
	} {
		if err := o.Env(lookupIn(bad)); err == nil {
			t.Errorf("%v must error", bad)
		}
	}
}

func TestTaskDequeAlgosEquivalentUnderStress(t *testing.T) {
	// Both deque algorithms must run an imbalanced nested-task workload
	// to completion with identical task counts, on both layers.
	for _, algo := range []TaskDequeAlgo{DequeChaseLev, DequeMutex} {
		t.Run(algo.String(), func(t *testing.T) {
			forBothLayers(t, Options{MaxThreads: 8, Bind: true, TaskDeque: algo}, func(rt *Runtime, tc exec.TC) {
				var done atomic.Int64
				rt.Parallel(tc, 8, func(w *Worker) {
					if w.ThreadNum()%2 == 0 {
						for k := 0; k < 25; k++ {
							w.Task(func(cw *Worker) {
								cw.Task(func(*Worker) { done.Add(1) })
								done.Add(1)
							})
						}
					}
					w.Barrier()
				})
				if done.Load() != 200 {
					t.Errorf("done = %d, want 200", done.Load())
				}
			})
		})
	}
}
