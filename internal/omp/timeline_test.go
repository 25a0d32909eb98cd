package omp

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/sim"
)

// runtimeTimelinePinned is the FNV-1a hash TestRuntimeTimelinePinned
// produced at commit 380a7ef, before the scheduling-point waits, the
// barrier completions and the dispatch rings were each folded into one
// implementation. A runtime change that moves one spine event in virtual
// time, emits one more or fewer, or reorders two changes it.
const runtimeTimelinePinned uint64 = 0x558f13ed1f4091e0

// timelineTeam is the team size of every timeline region: with the
// default barrier fanout of 4 it builds a two-leaf arrival tree of
// unequal leaves, so cancel bits have a path to pioneer.
const timelineTeam = 6

// TestRuntimeTimelinePinned drives every synchronization protocol of the
// runtime on the simulator — worksharing under each schedule, singles,
// sections, reductions, barriers, tasks with taskwait, taskgroup and an
// undeferred task held on a dependence (each of which also sleeps while
// teammates run the tasks), a region cancelled mid-loop, and a resilient
// team losing a CPU mid-barrier, mid-join and mid-loop — under each
// barrier algorithm with cancellation off and on. It hashes (virtual
// time, thread, kind, sync) of every spine event plus each run's final
// virtual time and compares the hash with the constant recorded before
// the protocols were unified.
func TestRuntimeTimelinePinned(t *testing.T) {
	h := fnv.New64a()
	for _, algo := range []BarrierAlgo{BarrierHier, BarrierFlat, BarrierTree} {
		for _, cancel := range []bool{false, true} {
			ch := fnv.New64a()
			opts := Options{MaxThreads: 8, Bind: true, BarrierAlgo: algo, Cancellation: cancel}
			timelineRun(t, ch, opts, nil, func(rt *Runtime, tc exec.TC) {
				rt.Parallel(tc, timelineTeam, timelineConstructs)
				rt.Parallel(tc, timelineTeam, timelineConstructs) // on the hot team
				rt.Parallel(tc, timelineTeam, timelineCancelMidLoop)
				rt.Parallel(tc, timelineTeam, func(w *Worker) { w.Barrier() })
			})
			opts.Resilient = true
			// Worker 3 is mid-charge when its CPU goes, its teammates
			// parked in an explicit barrier, at the join, or racing it
			// through a train of nowait loops and singles.
			for _, body := range []func(*Worker){timelineShrinkAtBarrier, timelineShrinkAtJoin, timelineShrinkInLoops} {
				timelineRun(t, ch, opts, func(s *sim.Sim, rt *Runtime) {
					s.At(1_000_000, func() { rt.OfflineCPU(3) })
				}, func(rt *Runtime, tc exec.TC) {
					rt.Parallel(tc, timelineTeam, body)
					rt.Parallel(tc, timelineTeam, func(w *Worker) { w.Reduce(ReduceSum, 1) })
				})
			}
			t.Logf("%v cancel=%v: %#x", algo, cancel, ch.Sum64())
			h.Write(ch.Sum(nil))
		}
	}
	if got := h.Sum64(); got != runtimeTimelinePinned {
		t.Errorf("runtime timeline hash %#x, want %#x (per-configuration hashes in -v log)", got, runtimeTimelinePinned)
	}
}

// timelineRun runs body as the master thread of a fresh runtime on a
// fresh 8-CPU simulator, feeding every spine event and the final virtual
// time into h.
func timelineRun(t *testing.T, h hash.Hash64, opts Options, arm func(*sim.Sim, *Runtime), body func(*Runtime, exec.TC)) {
	t.Helper()
	s := sim.New(8, 7)
	layer := exec.NewSimLayer(s, simCosts())
	opts.Spine = ompt.NewSpine()
	var b [24]byte
	opts.Spine.On(func(ev ompt.Event) {
		binary.LittleEndian.PutUint64(b[0:], uint64(ev.TimeNS))
		binary.LittleEndian.PutUint64(b[8:], uint64(int64(ev.Thread)))
		binary.LittleEndian.PutUint64(b[16:], uint64(ev.Kind)<<32|uint64(ev.Sync))
		h.Write(b[:])
	})
	rt := New(layer, opts)
	if arm != nil {
		arm(s, rt)
	}
	end, err := layer.Run(func(tc exec.TC) {
		body(rt, tc)
		rt.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(b[0:], uint64(end))
	h.Write(b[:8])
}

// timelineConstructs runs every worksharing, barrier and tasking
// construct once.
func timelineConstructs(w *Worker) {
	c := w.TC()
	for _, sched := range []Schedule{Static, Dynamic, Guided} {
		w.For(0, 40, ForOpt{Sched: sched, Chunk: 2}, func(lo, hi int) {
			c.Charge(int64(300 * (hi - lo) * (1 + w.ThreadNum())))
		})
	}
	w.ForOrdered(0, 12, ForOpt{Sched: Dynamic, Chunk: 1}, func(i int, ordered func(func())) {
		c.Charge(200)
		ordered(func() { c.Charge(50) })
	})
	w.Single(false, func() { c.Charge(1_000) })
	v := w.SingleCopyPrivate(func() any { c.Charge(500); return 7 })
	w.Sections(false, func() { c.Charge(800) }, func() { c.Charge(1_600) }, func() { c.Charge(400) })
	w.Reduce(ReduceSum, float64(v.(int)+w.ThreadNum()))
	w.Barrier()

	// A task flood every thread helps drain at its taskwait.
	for k := 0; k < 6; k++ {
		w.Task(func(tw *Worker) { tw.TC().Charge(int64(700 + 300*k)) })
	}
	w.Taskwait()

	// The master's taskwait, taskgroup and undeferred dependent task each
	// outlast its own work: teammates parked at the following barrier
	// steal the tasks, and the master sleeps until they finish.
	var dep int
	long := func(tw *Worker) { tw.TC().Charge(20_000) }
	w.Master(func() {
		c.Charge(5_000)
		for k := 0; k < 4; k++ {
			w.Task(long)
		}
		w.Taskwait()
	})
	w.Barrier()
	w.Master(func() {
		c.Charge(5_000)
		w.Taskgroup(func(gw *Worker) {
			for k := 0; k < 3; k++ {
				gw.Task(func(tw *Worker) {
					tw.Task(long)
					long(tw)
				})
			}
		})
	})
	w.Barrier()
	w.Master(func() {
		c.Charge(5_000)
		w.TaskWith(TaskOpt{Depend: []Dep{Out(&dep)}}, long)
		c.Charge(3_000)
		w.TaskWith(TaskOpt{Undeferred: true, Depend: []Dep{In(&dep)}}, func(tw *Worker) { tw.TC().Charge(300) })
	})
	// Thread 1 arrives last while a teammate still runs its task: the
	// completer's drain — at this barrier, then at the join — waits on a
	// task it cannot steal.
	for range 2 {
		if w.ThreadNum() == 1 {
			c.Charge(5_000)
			w.Task(long)
			c.Charge(3_000)
		}
		w.Barrier()
	}
	if w.ThreadNum() == 1 {
		c.Charge(5_000)
		w.Task(long)
		c.Charge(3_000)
	}
}

// timelineCancelMidLoop cancels a worksharing loop, then — while its
// teammates are parked at the closing barrier of a second loop — the
// whole region.
func timelineCancelMidLoop(w *Worker) {
	c := w.TC()
	w.For(0, 64, ForOpt{Sched: Dynamic, Chunk: 1}, func(lo, hi int) {
		c.Charge(1_000)
		if lo == 10 {
			w.Cancel(CancelFor)
		}
	})
	w.Task(func(tw *Worker) { tw.TC().Charge(3_000) })
	w.For(0, 64, ForOpt{Sched: Guided, Chunk: 1}, func(lo, hi int) {
		c.Charge(int64(500 * (hi - lo)))
		if lo <= 20 && hi > 20 {
			c.Charge(30_000)
			w.Cancel(CancelParallel)
		}
	})
	w.Task(func(tw *Worker) { tw.TC().Charge(3_000) }) // discarded once cancelled
	w.Single(false, func() { c.Charge(1_000) })
	w.Reduce(ReduceSum, 1)
	w.Barrier()
}

// timelineShrinkAtBarrier: worker 3 dies arriving at the barrier its
// teammates are parked in, completing it on their behalf.
func timelineShrinkAtBarrier(w *Worker) {
	if w.ThreadNum() == 3 {
		w.TC().Charge(5_000_000)
	}
	w.Task(func(tw *Worker) { tw.TC().Charge(1_000) })
	w.Barrier()
	w.For(0, 30, ForOpt{Sched: Static}, func(lo, hi int) { w.TC().Charge(int64(1_000 * (hi - lo))) })
}

// timelineShrinkAtJoin: worker 3 dies arriving at the region's join.
func timelineShrinkAtJoin(w *Worker) {
	w.For(0, 30, ForOpt{Sched: Dynamic, Chunk: 3}, func(lo, hi int) { w.TC().Charge(int64(1_000 * (hi - lo))) })
	if w.ThreadNum() == 3 {
		w.TC().Charge(5_000_000)
	}
}

// timelineShrinkInLoops: worker 3 dies at a chunk claim, orphaning that
// loop's dispatch buffer and every later single's; the ring wraps onto
// them and reclaims each once the survivors have moved past it. Worker 1
// starts late, so the others also wrap onto buffers it still holds.
func timelineShrinkInLoops(w *Worker) {
	if w.ThreadNum() == 1 {
		w.TC().Charge(900_000)
	}
	for l := 0; l < 3*dispatchRingSize; l++ {
		w.For(0, 24, ForOpt{Sched: Dynamic, Chunk: 1, NoWait: true}, func(lo, hi int) {
			w.TC().Charge(20_000)
		})
		w.Single(true, func() { w.TC().Charge(1_000) })
	}
	w.Barrier()
}
