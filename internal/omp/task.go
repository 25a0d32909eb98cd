package omp

import (
	"sync"
	"sync/atomic"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/ompt"
)

// task is an explicit OpenMP task. Records are recycled through their
// owner's free lists (newTask, unref); the fields are laid out so that
// creating a task and freeing it write only the first cache line of the
// 128-byte record, which a thief freeing a stolen task hands back to the
// owner.
type task struct {
	fn     func(*Worker)
	parent *task
	// group is the taskgroup the task belongs to (nil outside any);
	// inherited from the encountering thread's current group.
	group *taskgroup
	next  *task  // free-list link
	id    uint64 // spine task id (0 for implicit tasks, and without a spine)
	// refs counts the references that keep the record from being
	// recycled: the task's own completion, each child that has not
	// finished touching it, each dependence-tracker slot naming it, and a
	// predecessor waking it as a held undeferred task.
	refs     atomic.Int32
	children exec.Word
	waiting  exec.Word // parent is blocked in taskwait
	// final marks a final task: it and every descendant execute
	// undeferred (included tasks).
	final bool
	// undeferred marks a task the encountering thread runs inline
	// (if(false) or final). When such a task is held on dependences the
	// encountering thread waits in waitCount; the releasing predecessor
	// must wake that waiter instead of queueing the task.
	undeferred bool
	// hasDeps marks a task created with a depend clause: only such a task
	// is ever registered in a depTracker, so only it can gain a successor.
	hasDeps bool

	// owner is the worker whose free lists the record returns to (nil for
	// an implicit task, which is never freed), team the owner's team.
	owner *Worker
	team  *Team

	// Dependence state. deps is the address → last-accessor map this
	// task's *children* resolve their depend clauses against; npred is
	// this task's own count of unfinished predecessors; succs/depDone
	// (under depMu) are the successors waiting on this task. deps and the
	// backing array of succs stay with the record across reuse.
	deps    *depTracker
	npred   exec.Word
	depMu   sync.Mutex
	depDone bool
	succs   []*task
}

// currentTask returns the task whose body the worker is executing (the
// implicit task when outside any explicit task).
func (w *Worker) currentTask() *task {
	if w.curTask == nil {
		// Lazily create the implicit task of this thread. It is never
		// freed, so its children take no reference to it.
		w.curTask = &task{team: w.team}
	}
	return w.curTask
}

// newTask takes a task record from this worker's free list, refilling
// the list from the remote-free stack, and allocates only when both are
// empty — libomp's per-thread fast allocator. The record holds one
// reference, its own completion.
func (w *Worker) newTask() *task {
	t := w.freeTasks
	if t == nil {
		// The owner takes the whole stack at once and never pops a single
		// node, so a remote CAS push cannot be fooled by a recycled head
		// (no ABA).
		if t = w.remoteFree.Swap(nil); t == nil {
			t = &task{owner: w, team: w.team}
		}
	}
	w.freeTasks, t.next = t.next, nil
	t.refs.Store(1)
	return t
}

// unref drops one reference to t and, when it was the last, clears what
// the record points to outside the runtime (the closure above all) and
// hands it back to its owner: onto the owner's own list when the caller
// is the owner, onto its remote-free stack otherwise. A reference is
// only ever taken by a holder of another, so a count of 1 is the
// caller's alone and cannot grow: the common last release skips the
// atomic add.
func (w *Worker) unref(t *task) {
	if t.refs.Load() != 1 {
		if n := t.refs.Add(-1); n > 0 {
			return
		} else if n < 0 {
			panic("omp: task record released more often than referenced")
		}
	}
	t.refs.Store(0)
	t.fn, t.parent, t.group = nil, nil, nil
	o := t.owner
	if o == w {
		t.next = w.freeTasks
		w.freeTasks = t
		return
	}
	for {
		head := o.remoteFree.Load()
		t.next = head
		if o.remoteFree.CompareAndSwap(head, t) {
			return
		}
	}
}

// forkChargeNS is the dispatching-side setup cost per forked worker
// (work-descriptor writes, cache line pushes).
const forkChargeNS = 120

// taskCreateNS is the allocation + descriptor setup cost of one explicit
// task beyond the malloc itself.
const taskCreateNS = 55

// taskDispatchNS is the dequeue-and-invoke cost.
const taskDispatchNS = 40

// TaskOpt carries the clauses of a task construct.
type TaskOpt struct {
	// Depend lists the task's depend clauses; the task runs only after
	// every sibling predecessor named by the clauses has finished.
	Depend []Dep
	// Final marks the task final (final clause with a true expression):
	// it and all tasks it creates execute undeferred.
	Final bool
	// Undeferred executes the task immediately on the encountering
	// thread (the if clause with a false expression). A task with
	// unfinished predecessors is still held until they complete.
	Undeferred bool
}

// Task creates an explicit task (#pragma omp task). The task may execute
// on any thread of the team, at task scheduling points (barriers,
// taskwait, task creation under load).
func (w *Worker) Task(fn func(*Worker)) {
	w.TaskWith(TaskOpt{}, fn)
}

// TaskIf creates a task when cond is true, otherwise executes fn
// immediately (the if clause of #pragma omp task; EPCC CONDITIONAL_TASK
// measures exactly this with cond false). Both paths run the same
// completion accounting, so TasksRun and the OMPT stream see deferred
// and undeferred tasks symmetrically.
func (w *Worker) TaskIf(cond bool, fn func(*Worker)) {
	w.TaskWith(TaskOpt{Undeferred: !cond}, fn)
}

// TaskWith creates an explicit task with clauses. Every task — deferred,
// undeferred, final, throttled by the cutoff — flows through the same
// creation and completion accounting; only where the body runs differs.
func (w *Worker) TaskWith(opt TaskOpt, fn func(*Worker)) {
	tc := w.tc
	c := tc.Costs()
	parent := w.currentTask()
	final := opt.Final || parent.final
	undeferred := opt.Undeferred || final
	if undeferred {
		// Undeferred: the descriptor lives on the encountering thread's
		// stack — no malloc, no deque traffic.
		tc.Charge(taskCreateNS)
	} else {
		tc.Charge(c.MallocNS + taskCreateNS)
	}
	t := w.newTask()
	t.fn, t.parent, t.group = fn, parent, w.curGroup
	t.final, t.undeferred, t.hasDeps = final, undeferred, len(opt.Depend) > 0
	t.id = 0
	if rt := w.team.rt; rt.spine != nil {
		// The id is read by emitted events only: without a spine, tasks
		// skip the process-wide counter.
		t.id = rt.taskSeq.Add(1)
	}
	w.emitTask(ompt.TaskCreate, t.id, 0)
	parent.children.Add(1)
	if parent.owner != nil {
		parent.refs.Add(1)
	}
	w.team.pending.Add(1)
	if g := t.group; g != nil {
		g.count.Add(1)
	}
	if t.hasDeps {
		t.depDone = false // a record's previous life may have set it
		// Seed one phantom predecessor so the task cannot be released
		// (by a predecessor finishing mid-registration) before the edge
		// set is complete.
		t.npred.Store(1)
		w.registerDeps(t, opt.Depend)
		if t.npred.Add(^uint32(0)) != 0 {
			if !undeferred {
				// Held: the last predecessor's completion queues it.
				return
			}
			// An undeferred task must complete before the encountering
			// thread passes the construct: wait out the predecessors
			// (helping with ready tasks), then fall through to run the
			// body inline.
			w.waitCount(&t.npred, nil)
		}
	}
	if !undeferred && w.cutoffHit() {
		undeferred = true
		w.team.rt.TaskCutoffs.Add(1)
	}
	if undeferred {
		w.runTaskBody(t)
		w.finishTask(t)
		return
	}
	w.deque.push(tc, t)
	w.wakeThief()
}

// wakeThief recruits one teammate parked at a barrier when a task
// becomes ready: the woken waiter re-checks the barrier generation,
// finds the pool non-empty, and steals instead of going back to sleep.
func (w *Worker) wakeThief() {
	t := w.team
	if t.parkedSleepers() > 0 {
		w.tc.FutexWake(&t.barrier.gen, 1)
		if t.cancellable {
			// Sleepers of a cancellable region may be parked at the
			// dedicated join barrier instead (cancel.go).
			w.tc.FutexWake(&t.joinBar.gen, 1)
		}
	}
}

// waitCount is the scheduling-point wait of taskwait, taskgroup and an
// undeferred task held on dependences: until count drains to zero, run
// ready tasks, and sleep on count only when none is left to run. waiting,
// when non-nil, is raised for the duration of the sleep so the thread
// decrementing count knows a wake is owed; without it (npred) every
// decrement that reaches zero wakes.
func (w *Worker) waitCount(count, waiting *exec.Word) {
	for {
		n := count.Load()
		if n == 0 {
			return
		}
		if w.runOneTask() {
			continue
		}
		if waiting != nil {
			waiting.Store(1)
		}
		w.tc.FutexWait(count, n)
		if waiting != nil {
			waiting.Store(0)
		}
	}
}

// cutoffHit reports whether the cutoff throttle should serialize the
// next task: the worker's own deque already holds TaskCutoff ready
// tasks, so deferring more only grows queues (0 disables the throttle).
func (w *Worker) cutoffHit() bool {
	cut := w.team.rt.opts.TaskCutoff
	return cut > 0 && w.deque.size() >= cut
}

// runTaskBody executes t on this worker, maintaining the current-task
// and current-taskgroup chains: tasks a body creates become children of
// t and members of t's group, wherever the body was stolen to. The
// restore is deferred so a panic unwinding out of the body (to a recover
// in the region) cannot leave the worker parenting new tasks under a
// dead task or group; completion accounting is still skipped on panic.
func (w *Worker) runTaskBody(t *task) {
	if t.team.cancellable {
		if w.taskCancelled(t) {
			// Discarded: the body never runs, but the caller still runs
			// finishTask, so dependence release (releaseSuccs), parent,
			// taskgroup and team accounting all fire exactly once —
			// cancelled tasks are drained, not dropped. Cancellation is
			// judged against the task's own team: a cross-team thief must
			// not discard a live inner team's task because its own region
			// was cancelled (or vice versa).
			kind := CancelTaskgroup
			if t.team.parCancelled() {
				kind = CancelParallel
			}
			w.emitCancel(kind, t.id, cancelDiscardedTask)
			return
		}
		if t.group != nil {
			w.runTaskBodyCaught(t)
			return
		}
	}
	prevT, prevG := w.curTask, w.curGroup
	w.curTask, w.curGroup = t, t.group
	defer func() { w.curTask, w.curGroup = prevT, prevG }()
	w.emitTask(ompt.TaskSchedule, t.id, 0)
	t.fn(w)
	w.emitTask(ompt.TaskComplete, t.id, 0)
}

// runTaskBodyCaught runs a taskgroup member's body with panic
// containment (cancellation ICV on): a panic cancels the group —
// discarding its not-yet-started members — and is recorded for re-raise
// at the end of the taskgroup construct, instead of unwinding through
// whichever pool worker happened to steal the task and aborting the
// process. The recover runs after the current-task restore but before
// the caller's finishTask, so completion accounting stays exactly-once
// and the end-of-group wait converges. CPU-offline unwinds
// (offlineSignal) are re-raised — they must reach the worker loop — and
// so is the execution layer killing the thread, which must reach the
// thread's root.
func (w *Worker) runTaskBodyCaught(t *task) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(offlineSignal); ok || exec.IsThreadKill(r) {
				panic(r)
			}
			t.group.recordPanic(r)
			w.cancelGroup(t.group)
		}
	}()
	prevT, prevG := w.curTask, w.curGroup
	w.curTask, w.curGroup = t, t.group
	defer func() { w.curTask, w.curGroup = prevT, prevG }()
	w.emitTask(ompt.TaskSchedule, t.id, 0)
	t.fn(w)
	w.emitTask(ompt.TaskComplete, t.id, 0)
}

// finishTask propagates completion: dependent successors are released
// first (so they are findable before any waiter is woken), then the
// parent, the taskgroup, and the team are notified. Last, the task drops
// its references: the parent's once the wake is delivered, its own once
// nothing here reads it any more.
func (w *Worker) finishTask(t *task) {
	if t.hasDeps {
		w.releaseDeps(t)
	}
	if t.deps != nil {
		// The body is done, so no child will resolve a clause against the
		// tracker again.
		t.deps.reset(w)
	}
	if p := t.parent; p != nil {
		p.children.Add(^uint32(0))
		if p.waiting.Load() == 1 {
			w.tc.FutexWake(&p.children, -1)
		}
		if p.owner != nil {
			w.unref(p)
		}
	}
	if g := t.group; g != nil {
		if g.count.Add(^uint32(0)) == 0 && g.waiting.Load() == 1 {
			w.tc.FutexWake(&g.count, -1)
		}
	}
	// The task's own team is credited — a cross-team thief must drain
	// the victim team's pending count, not its own.
	t.team.pending.Add(^uint32(0))
	t.team.rt.TasksRun.Add(1)
	w.unref(t)
}

// runOneTask executes one ready task: own deque first (bottom), then
// steals from teammates (top). Placed teams sweep victims nearest-first
// (stealNearest); unplaced teams — and StealRR — probe at
// most TaskStealTries victims round-robin, with the start point rotating
// even when the sweep fails so retries do not rescan the same victims in
// the same order. It reports whether a task ran.
func (w *Worker) runOneTask() bool {
	tc := w.tc
	if t := w.deque.pop(tc); t != nil {
		tc.Charge(taskDispatchNS)
		w.runTaskBody(t)
		w.finishTask(t)
		return true
	}
	if w.team.stealNear {
		if w.stealNearest() {
			return true
		}
	} else {
		n := w.team.n
		tries := w.team.rt.opts.TaskStealTries
		if tries <= 0 || tries > n-1 {
			tries = n - 1
		}
		start := w.stealRR
		for k := 1; k <= tries; k++ {
			victim := w.team.workers[(w.id+start+k)%n]
			if victim == nil || victim == w {
				continue
			}
			if t := victim.deque.steal(tc); t != nil {
				w.stealRR = (start + k) % n
				w.finishSteal(tc, victim, t)
				return true
			}
		}
		w.stealRR = (start + 1) % n
	}
	// The own team is dry. Once teams nest, help across team boundaries
	// — enclosing team first, then sibling sub-teams; a flat team pays
	// one nil check and one load to skip this.
	if w.team.parent == nil && w.team.subActive.Load() == 0 {
		return false
	}
	return w.stealCrossTeam()
}

// sweepTeam probes every worker of team vt (skipping this worker) for a
// stealable task. Cross-team sweeps are the cold path — entered only
// when the thief's own team is dry — so a flat front-to-back probe
// suffices; the vt.pending gate keeps a sweep of an idle team to one
// shared-counter load.
func (w *Worker) sweepTeam(vt *Team) bool {
	if vt == nil || vt.pending.Load() == 0 {
		return false
	}
	for _, victim := range vt.workers {
		if victim == nil || victim == w {
			continue
		}
		if t := victim.deque.steal(w.tc); t != nil {
			w.finishSteal(w.tc, victim, t)
			return true
		}
	}
	return false
}

// stealCrossTeam is the nested-team help path, preferring the enclosing
// hierarchy near-to-far: first down into teammates' active sub-teams,
// then up the ancestor chain — each ancestor's own deques, then sibling
// sub-teams hanging off that ancestor's other workers (the chain this
// worker came from is skipped; its work was already swept).
func (w *Worker) stealCrossTeam() bool {
	t := w.team
	if t.subActive.Load() != 0 {
		for _, tw := range t.workers {
			if st := tw.sub.Load(); st != nil && w.sweepTeam(st) {
				return true
			}
		}
	}
	child := t
	for p := t.parent; p != nil; p = p.parent {
		if w.sweepTeam(p) {
			return true
		}
		if p.subActive.Load() != 0 {
			for _, pw := range p.workers {
				st := pw.sub.Load()
				if st == nil || st == child {
					continue
				}
				if w.sweepTeam(st) {
					return true
				}
			}
		}
		child = p
	}
	return false
}

// pendingWork reports whether a waiter could find a task to help with:
// in the own team's pool, an enclosing team's, or a teammate's active
// sub-team's. It gates the help-vs-sleep decision in barrier and join
// wait loops ONLY — completion and drain conditions always use the own
// pending count, or an outer barrier would block on inner-team work it
// does not own. For a flat team it is one load plus one nil check.
func (t *Team) pendingWork() bool {
	if t.pending.Load() > 0 {
		return true
	}
	if t.parent == nil && t.subActive.Load() == 0 {
		return false
	}
	for p := t.parent; p != nil; p = p.parent {
		if p.pending.Load() > 0 {
			return true
		}
	}
	if t.subActive.Load() != 0 {
		for _, tw := range t.workers {
			if st := tw.sub.Load(); st != nil && st.pending.Load() > 0 {
				return true
			}
		}
	}
	return false
}

// stealNearest sweeps victims in NUMA order: the same-place ring, then
// the same-socket ring, then remote victims by increasing distance —
// rotating within each ring independently, so repeated sweeps spread
// load across equally-near victims before ever going remote. The
// TaskStealTries budget bounds total probes, spent near-to-far.
func (w *Worker) stealNearest() bool {
	if w.stealOrder == nil {
		w.stealOrder, w.stealRings = w.team.rt.opts.Places.StealOrder(w.id, w.team.cpus)
	}
	order := w.stealOrder
	tc := w.tc
	tries := w.team.rt.opts.TaskStealTries
	if tries <= 0 || tries > len(order) {
		tries = len(order)
	}
	probed, lo := 0, 0
	for r := 0; r < 3 && probed < tries; r++ {
		hi := len(order)
		if r < 2 {
			hi = w.stealRings[r]
		}
		size := hi - lo
		if size <= 0 {
			lo = hi
			continue
		}
		cur := w.stealCur[r] % size
		for k := 0; k < size && probed < tries; k++ {
			victim := w.team.workers[order[lo+(cur+k)%size]]
			probed++
			if t := victim.deque.steal(tc); t != nil {
				// The next sweep starts at this victim again: it had work.
				w.stealCur[r] = (cur + k) % size
				w.finishSteal(tc, victim, t)
				return true
			}
		}
		w.stealCur[r] = (cur + 1) % size
		lo = hi
	}
	return false
}

// finishSteal accounts for and runs a stolen task, splitting the steal
// counter by thief/victim socket locality when the team is placed.
func (w *Worker) finishSteal(tc exec.TC, victim *Worker, t *task) {
	tc.Charge(taskDispatchNS)
	rt := w.team.rt
	rt.TaskSteals.Add(1)
	// The victim may sit in another team (cross-team help): its CPU
	// comes from its own team's placement, not the thief's.
	if cpus, vcpus := w.team.cpus, victim.team.cpus; cpus != nil && vcpus != nil {
		p := rt.opts.Places
		if p.SocketOf(cpus[w.id]) == p.SocketOf(vcpus[victim.id]) {
			rt.LocalSteals.Add(1)
		} else {
			rt.RemoteSteals.Add(1)
		}
	}
	w.emitTask(ompt.TaskSteal, t.id, int64(victim.id))
	w.runTaskBody(t)
	w.finishTask(t)
}

// Taskwait blocks until all child tasks of the current task complete,
// executing available tasks while it waits (#pragma omp taskwait).
func (w *Worker) Taskwait() {
	cur := w.currentTask()
	w.emitSync(ompt.SyncAcquire, ompt.SyncTaskwait, cur.id)
	w.waitCount(&cur.children, &cur.waiting)
	w.emitSync(ompt.SyncAcquired, ompt.SyncTaskwait, cur.id)
}

// drainAllTasks runs the team's tasks to exhaustion (used by serialized
// regions and the end of a region).
func (w *Worker) drainAllTasks() {
	for w.team.pending.Load() > 0 {
		if !w.runOneTask() {
			w.tc.Yield()
		}
	}
}
