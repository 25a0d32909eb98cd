package omp

import (
	"sync"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/ompt"
)

// taskgroup is one #pragma omp taskgroup region's state: a count of
// unfinished member tasks and a futex for the wait at the region's end.
// Membership is inherited: a task created while a group is current joins
// it, and so do the tasks that task creates wherever its body runs — so
// the end-of-group wait covers all descendants, which is exactly how
// taskgroup differs from taskwait (children only).
type taskgroup struct {
	parent  *taskgroup // lexically enclosing group, restored on exit
	count   exec.Word  // unfinished member tasks, descendants included
	waiting exec.Word  // a thread is blocked in the end-of-group wait
	id      uint64     // spine group id

	// cancelled is the group's cancel flag (omp cancel taskgroup, or a
	// panic in a member task): bodies of member tasks not yet started
	// are discarded — with full accounting, so the end-of-group wait
	// still converges (cancel.go).
	cancelled exec.Word
	// A panic in a member task cancels the group and is re-raised on
	// the thread executing the taskgroup construct once the wait
	// completes, instead of killing whichever pool worker ran the task.
	// First panic wins; the happens-before to the re-raise is the
	// count word reaching zero.
	panicMu  sync.Mutex
	panicVal any
	panicked bool
}

// recordPanic captures the first panic of a member task (cancellation
// ICV on) for re-raise at the end of the taskgroup construct.
func (g *taskgroup) recordPanic(r any) {
	g.panicMu.Lock()
	if !g.panicked {
		g.panicked = true
		g.panicVal = r
	}
	g.panicMu.Unlock()
}

// Taskgroup runs fn with a taskgroup current, then waits until every
// task generated inside — and every descendant of those tasks — has
// completed (#pragma omp taskgroup). Unlike Taskwait it does not wait
// on sibling tasks created before the construct, and unlike Taskwait it
// does wait on deeper descendants. The waiting thread executes ready
// tasks while it waits.
func (w *Worker) Taskgroup(fn func(*Worker)) {
	g := &taskgroup{parent: w.curGroup, id: w.team.rt.groupSeq.Add(1)}
	w.emitTask(ompt.TaskgroupBegin, g.id, 0)
	w.runGroupBody(g, fn)
	w.emitSync(ompt.SyncAcquire, ompt.SyncTaskgroup, g.id)
	w.waitCount(&g.count, &g.waiting)
	w.emitSync(ompt.SyncAcquired, ompt.SyncTaskgroup, g.id)
	w.emitTask(ompt.TaskgroupEnd, g.id, 0)
	if g.panicked {
		// A member task panicked: the group was cancelled, every member
		// drained, and the panic surfaces here — on the thread that owns
		// the construct — instead of aborting a pool worker.
		panic(g.panicVal)
	}
}

// runGroupBody runs fn with g as the current group. The restore is
// deferred so a panic unwinding out of fn (to a recover in the region
// body) cannot leave curGroup pointing at a dead group that silently
// enrolls later tasks; the end-of-group wait is still skipped on panic.
func (w *Worker) runGroupBody(g *taskgroup, fn func(*Worker)) {
	w.curGroup = g
	defer func() { w.curGroup = g.parent }()
	fn(w)
}
