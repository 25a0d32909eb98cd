package omp

import (
	"strings"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/sim"
)

func cancelOpts() Options {
	return Options{MaxThreads: 4, Bind: true, Cancellation: true}
}

// TestCancelDisabledIsNoop: with the OMP_CANCELLATION ICV off, Cancel
// reports failure and the construct runs to completion — the compiled
// pragma's contract (the cancel directive is ignored).
func TestCancelDisabledIsNoop(t *testing.T) {
	ran := make([]int, 4)
	shrinkRun(t, Options{MaxThreads: 4, Bind: true},
		nil,
		func(rt *Runtime, tc exec.TC) {
			rt.Parallel(tc, 4, func(w *Worker) {
				if w.Cancel(CancelParallel) {
					t.Error("Cancel succeeded with OMP_CANCELLATION off")
				}
				if w.CancellationPoint(CancelParallel) {
					t.Error("CancellationPoint fired with OMP_CANCELLATION off")
				}
				ran[w.ThreadNum()]++
			})
		})
	for id, n := range ran {
		if n != 1 {
			t.Fatalf("thread %d ran %d times, want 1", id, n)
		}
	}
}

// TestCancelParallelConverges: one thread cancels the parallel region;
// every thread observes it at a cancellation point, branches to the end
// of the region, and the region joins cleanly — under both propagation
// modes and all barrier algorithms.
func TestCancelParallelConverges(t *testing.T) {
	for _, prop := range []CancelProp{CancelPropFlat, CancelPropTree} {
		for _, algo := range []BarrierAlgo{BarrierFlat, BarrierHier} {
			opts := cancelOpts()
			opts.CancelProp = prop
			opts.BarrierAlgo = algo
			var exited [4]bool
			work := 0
			shrinkRun(t, opts, nil, func(rt *Runtime, tc exec.TC) {
				rt.Parallel(tc, 4, func(w *Worker) {
					if w.ThreadNum() == 1 {
						w.TC().Charge(100_000)
						if !w.Cancel(CancelParallel) {
							t.Error("Cancel(CancelParallel) = false with ICV on")
						}
						exited[1] = true
						return
					}
					for i := 0; ; i++ {
						if w.CancellationPoint(CancelParallel) {
							break
						}
						w.TC().Charge(10_000)
						w.Master(func() { work++ })
						if i > 1_000_000 {
							t.Fatal("cancellation never observed")
						}
					}
					exited[w.ThreadNum()] = true
				})
			})
			for id, ok := range exited {
				if !ok {
					t.Fatalf("prop=%v algo=%v: thread %d never exited", prop, algo, id)
				}
			}
			if work == 0 {
				t.Fatalf("prop=%v algo=%v: no partial work before the cancel", prop, algo)
			}
		}
	}
}

// TestCancelForStopsDispatch: cancelling a dynamic loop abandons its
// unclaimed chunks; the construct's closing barrier retires the request
// and the next loop over the same range runs in full.
func TestCancelForStopsDispatch(t *testing.T) {
	const iters = 400
	first, second := 0, 0
	shrinkRun(t, cancelOpts(), nil, func(rt *Runtime, tc exec.TC) {
		rt.Parallel(tc, 4, func(w *Worker) {
			mine := 0
			w.ForEach(0, iters, ForOpt{Sched: Dynamic, Chunk: 1}, func(i int) {
				w.TC().Charge(10_000)
				mine++
				if w.ThreadNum() == 2 && mine == 5 {
					w.Cancel(CancelFor)
				}
			})
			w.Atomic(func() { first += mine })
			w.ForEach(0, iters, ForOpt{Sched: Dynamic, Chunk: 1}, func(i int) {
				w.TC().Charge(1_000)
				w.Atomic(func() { second++ })
			})
		})
	})
	if first >= iters {
		t.Fatalf("cancelled loop ran all %d iterations", first)
	}
	if first == 0 {
		t.Fatal("cancelled loop ran no iterations at all")
	}
	if second != iters {
		t.Fatalf("loop after the cancel ran %d iterations, want %d (bits not cleared?)", second, iters)
	}
}

// TestCancellationPointKinds: a loop cancel fires the for and not the
// sections point; a parallel cancel fires every kind.
func TestCancellationPointKinds(t *testing.T) {
	shrinkRun(t, cancelOpts(), nil, func(rt *Runtime, tc exec.TC) {
		rt.Parallel(tc, 2, func(w *Worker) {
			w.Master(func() {
				w.Cancel(CancelFor)
				if !w.CancellationPoint(CancelFor) {
					t.Error("for point missed a for cancel")
				}
				if w.CancellationPoint(CancelSections) {
					t.Error("sections point fired on a for cancel")
				}
				if w.CancellationPoint(CancelParallel) {
					t.Error("parallel point fired on a for cancel")
				}
			})
			w.Barrier() // retires the loop cancel
			w.Master(func() {
				if w.CancellationPoint(CancelFor) {
					t.Error("for cancel survived its closing barrier")
				}
				w.Cancel(CancelParallel)
				if !w.CancellationPoint(CancelFor) ||
					!w.CancellationPoint(CancelSections) ||
					!w.CancellationPoint(CancelParallel) {
					t.Error("parallel cancel must fire every cancellation point")
				}
			})
		})
	})
}

// TestCancelTaskgroupDiscards: cancelling a taskgroup discards the
// bodies of members that have not started, while the end-of-group wait
// still converges (drained, not dropped) and dependence chains release.
func TestCancelTaskgroupDiscards(t *testing.T) {
	const tasks = 64
	ran := 0
	shrinkRun(t, cancelOpts(), nil, func(rt *Runtime, tc exec.TC) {
		rt.Parallel(tc, 4, func(w *Worker) {
			w.Master(func() {
				w.Taskgroup(func(gw *Worker) {
					for i := 0; i < tasks; i++ {
						gw.Task(func(tw *Worker) {
							tw.TC().Charge(50_000)
							ran++ // single-threaded on sim: no race
							if ran == 3 {
								tw.Cancel(CancelTaskgroup)
							}
						})
					}
				})
			})
		})
	})
	if ran == 0 || ran >= tasks {
		t.Fatalf("cancelled taskgroup ran %d of %d bodies, want a partial count", ran, tasks)
	}
}

// TestTaskgroupPanicCancels: a panic in a member task cancels the group
// (remaining bodies discarded), accounting converges, and the panic
// value is re-raised at the taskgroup construct, not on the pool worker
// that ran the task.
func TestTaskgroupPanicCancels(t *testing.T) {
	const tasks = 32
	ran, caught := 0, false
	shrinkRun(t, cancelOpts(), nil, func(rt *Runtime, tc exec.TC) {
		rt.Parallel(tc, 4, func(w *Worker) {
			w.Master(func() {
				defer func() {
					if r := recover(); r != nil {
						if r != "boom" {
							t.Errorf("re-raised %v, want boom", r)
						}
						caught = true
					}
				}()
				w.Taskgroup(func(gw *Worker) {
					for i := 0; i < tasks; i++ {
						gw.Task(func(tw *Worker) {
							tw.TC().Charge(50_000)
							ran++
							if ran == 2 {
								panic("boom")
							}
						})
					}
				})
			})
		})
	})
	if !caught {
		t.Fatal("member-task panic was not re-raised at the taskgroup construct")
	}
	if ran >= tasks {
		t.Fatalf("panic did not cancel the group: %d of %d bodies ran", ran, tasks)
	}
}

// TestTaskgroupPanicUndisturbedWithoutICV: with cancellation off, a
// panicking task unwinds as before (the pre-cancellation contract —
// this test just pins that the new containment is gated on the ICV).
func TestTaskgroupPanicRuntimeStillUsable(t *testing.T) {
	ok := false
	shrinkRun(t, cancelOpts(), nil, func(rt *Runtime, tc exec.TC) {
		rt.Parallel(tc, 4, func(w *Worker) {
			w.Master(func() {
				func() {
					defer func() { recover() }()
					w.Taskgroup(func(gw *Worker) {
						gw.Task(func(*Worker) { panic("x") })
					})
				}()
			})
			w.Barrier()
		})
		// The pool must still run a clean region afterwards.
		rt.Parallel(tc, 4, func(w *Worker) {
			w.Master(func() { ok = true })
			w.Barrier()
		})
	})
	if !ok {
		t.Fatal("runtime unusable after a contained taskgroup panic")
	}
}

// TestKillInsideTaskgroupMember kills a thread (sim.Kill, a hard fault)
// while it is inside a taskgroup member body with cancellation on. The
// runtime contains panics of member tasks (it cancels the group and
// re-raises at the end of the construct), but the unwinding of a killed
// thread is not a panic of user code: the thread must die where it
// stands, with no group cancelled on its behalf and no runtime code
// executed by a dead thread.
func TestKillInsideTaskgroupMember(t *testing.T) {
	s := sim.New(2, 1)
	layer := exec.NewSimLayer(s, simCosts())
	cancels := 0
	spine := ompt.NewSpine().On(func(ompt.Event) { cancels++ }, ompt.Cancel)
	rt := New(layer, Options{Cancellation: true, Spine: spine})
	inBody, survived, deferred := false, false, false
	var job *sim.Proc
	_, err := layer.Run(func(tc exec.TC) {
		tc.Spawn("job", 1, func(jtc exec.TC) {
			job = jtc.(exec.ProcHolder).Proc()
			rt.Parallel(jtc, 1, func(w *Worker) {
				w.Taskgroup(func(w *Worker) {
					w.TaskIf(false, func(w *Worker) {
						defer func() { deferred = true }()
						inBody = true
						w.TC().Charge(50_000_000) // dies mid-flight
						survived = true
					})
				})
				survived = true
			})
		})
		s.At(s.Now()+1_000_000, func() { s.Kill(job) })
		tc.Charge(5_000_000)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inBody || survived {
		t.Fatalf("inBody=%v survived=%v: the thread must die inside the member body", inBody, survived)
	}
	if !deferred {
		t.Fatal("deferred call in the member body did not run while the thread unwound")
	}
	if job.State() != sim.StateDone {
		t.Fatalf("killed thread is %v, want done", job.State())
	}
	if cancels != 0 {
		t.Fatalf("%d cancel event(s): the kill was recorded as a member-task panic", cancels)
	}
}

// TestRegionDeadlineCancels: a region that overruns KOMP_REGION_DEADLINE
// is cancelled by the deadline alarm and joins with a partial result; a
// region that finishes in time is untouched and the stopped alarm leaves
// no trace on virtual time.
func TestRegionDeadlineCancels(t *testing.T) {
	opts := cancelOpts()
	opts.RegionDeadlineNS = 2_000_000
	done := 0
	shrinkRun(t, opts, nil, func(rt *Runtime, tc exec.TC) {
		rt.Parallel(tc, 4, func(w *Worker) {
			for i := 0; i < 10_000; i++ {
				if w.CancellationPoint(CancelParallel) {
					return
				}
				w.TC().Charge(5_000)
				done++
			}
		})
	})
	// 4 workers × 5µs polls against a 2ms deadline: ~400 polls happen,
	// far short of the 40000 a full run would record.
	if done == 0 || done >= 40_000 {
		t.Fatalf("deadline-cancelled region recorded %d polls, want a partial count", done)
	}

	// In-time region: virtual time must match a no-deadline run exactly.
	run := func(deadlineNS int64) int64 {
		o := cancelOpts()
		o.RegionDeadlineNS = deadlineNS
		return shrinkRun(t, o, nil, func(rt *Runtime, tc exec.TC) {
			rt.Parallel(tc, 4, func(w *Worker) {
				w.TC().Charge(100_000)
			})
		})
	}
	if with, without := run(1_000_000_000), run(0); with != without {
		t.Fatalf("unfired deadline perturbed virtual time: %d vs %d ns", with, without)
	}
}

// TestCancelDeterministic: identical cancellable runs take identical
// virtual time (the ablation's byte-identical requirement).
func TestCancelDeterministic(t *testing.T) {
	one := func() int64 {
		opts := cancelOpts()
		opts.RegionDeadlineNS = 1_500_000
		return shrinkRun(t, opts, nil, func(rt *Runtime, tc exec.TC) {
			rt.Parallel(tc, 4, func(w *Worker) {
				for !w.CancellationPoint(CancelParallel) {
					w.TC().Charge(7_000)
				}
			})
		})
	}
	if a, b := one(), one(); a != b {
		t.Fatalf("same cancel plan diverged: %d vs %d virtual ns", a, b)
	}
}

// TestShrinkCancelSameBarrier is the shrink × cancel regression: a team
// that loses a worker to CPU offline while another worker cancels the
// region — both landing on the same join — must converge, with the
// LockCheck discipline clean.
func TestShrinkCancelSameBarrier(t *testing.T) {
	for _, prop := range []CancelProp{CancelPropFlat, CancelPropTree} {
		opts := cancelOpts()
		opts.Resilient = true
		opts.CancelProp = prop
		sp := ompt.NewSpine()
		lc := ompt.NewLockCheck(sp)
		opts.Spine = sp
		survivors := 0
		shrinkRun(t, opts,
			func(s *sim.Sim, rt *Runtime) {
				// The offline lands while the other threads are working
				// toward (or already parked at) the join.
				s.At(900_000, func() { rt.OfflineCPU(3) })
			},
			func(rt *Runtime, tc exec.TC) {
				rt.Parallel(tc, 4, func(w *Worker) {
					switch w.ThreadNum() {
					case 1:
						w.TC().Charge(800_000)
						w.Cancel(CancelParallel)
					case 3:
						// Mid-charge when doomed: the charge is atomic on the
						// simulator, so the body completes and the doom is
						// observed at the next scheduling point — the join,
						// where the removal and the cancel meet.
						w.TC().Charge(5_000_000)
					default:
						for !w.CancellationPoint(CancelParallel) {
							w.TC().Charge(10_000)
						}
					}
					survivors++
				})
			})
		if survivors != 4 {
			t.Fatalf("prop=%v: %d bodies finished the region, want 4", prop, survivors)
		}
		if v := lc.Violations(); len(v) != 0 {
			t.Fatalf("prop=%v: LockCheck: %s", prop, strings.Join(v, "; "))
		}
	}
}

// TestCancelRealLayer exercises the same protocol on real goroutines:
// cancellation during a dynamic loop, a taskgroup cancel, and a region
// deadline — with the LockCheck discipline clean. (The -race run of the
// test suite makes this the data-race regression for the cancel path.)
func TestCancelRealLayer(t *testing.T) {
	opts := Options{MaxThreads: 4, Bind: true, Cancellation: true}
	sp := ompt.NewSpine()
	lc := ompt.NewLockCheck(sp)
	opts.Spine = sp
	layer := exec.NewRealLayer(4)
	rt := New(layer, opts)
	var ran exec.Word
	if _, err := layer.Run(func(tc exec.TC) {
		rt.Parallel(tc, 4, func(w *Worker) {
			w.ForEach(0, 10_000, ForOpt{Sched: Dynamic, Chunk: 1}, func(i int) {
				if ran.Add(1) == 50 {
					w.Cancel(CancelFor)
				}
			})
		})
		rt.Parallel(tc, 4, func(w *Worker) {
			w.Master(func() {
				w.Taskgroup(func(gw *Worker) {
					for i := 0; i < 64; i++ {
						gw.Task(func(tw *Worker) {
							if tw.CancellationPoint(CancelTaskgroup) {
								return
							}
						})
					}
					gw.Cancel(CancelTaskgroup)
				})
			})
		})
		rt.Close(tc)
	}); err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n < 50 || n >= 10_000 {
		t.Fatalf("cancelled loop ran %d iterations, want a partial count >= 50", n)
	}
	if v := lc.Violations(); len(v) != 0 {
		t.Fatalf("LockCheck: %s", strings.Join(v, "; "))
	}
}

// TestRealWatchdogFires pins the real-layer stall watchdog satellite: a
// run with no layer-level progress for the period gets a goroutine dump
// instead of hanging.
func TestRealWatchdogFires(t *testing.T) {
	layer := exec.NewRealLayer(2)
	fired := make(chan string, 1)
	layer.SetWatchdog(30_000_000, func(stacks string) { // 30ms
		select {
		case fired <- stacks:
		default:
		}
	})
	var gate exec.Word
	if _, err := layer.Run(func(tc exec.TC) {
		// Park past two watchdog periods with zero wakes in flight, then
		// self-release so the test run still terminates cleanly.
		h := tc.Spawn("releaser", 1, func(tc2 exec.TC) {
			tc2.Sleep(120_000_000)
			gate.Store(1)
			tc2.FutexWake(&gate, -1)
		})
		for gate.Load() == 0 {
			tc.FutexWait(&gate, 0)
		}
		h.Join(tc)
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case dump := <-fired:
		if !strings.Contains(dump, "goroutine") {
			t.Fatalf("watchdog report carries no goroutine dump: %q", dump[:min(len(dump), 80)])
		}
	default:
		t.Fatal("watchdog never fired across a 120ms stall with a 30ms period")
	}
}
