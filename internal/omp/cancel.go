package omp

// Cancellation (#pragma omp cancel / cancellation point), gated by the
// OMP_CANCELLATION ICV. The protocol follows libomp's shape:
//
//   - One team-level word holds the active cancel bits (parallel, loop,
//     sections); taskgroups carry their own flag. Cancel publishes a
//     bit; the runtime checks it at every scheduling point — barrier
//     arrival and wait, loop-chunk claims in the dispatch rings, task
//     execution, and the dispatch-ring acquire spin.
//
//   - A cancelled worksharing construct stops dispatching chunks; its
//     closing barrier (cancellation requires the construct not be
//     nowait) clears the loop/sections bits for the next construct.
//
//   - Cancelling the parallel construct abandons inner barriers: parked
//     waiters leave early and later barriers are skipped, so threads
//     converge at the region's *join*. Because abandoned generations
//     never complete, a cancellable region joins on a dedicated arrival
//     counter rather than the generation barrier — the same separation
//     libomp makes between its plain and fork-join barriers.
//
//   - Cancelled tasks are drained, not dropped: the body is skipped but
//     finishTask still runs, so dependence release (releaseSuccs),
//     parent/taskgroup counts and team accounting all fire exactly once.
//
// Observation cost is modeled explicitly (pollCancel): a poll that sees
// no news is a shared-state cache hit and free; the first poll after a
// publish pays the line transfer. Under flat propagation every observer
// misses on one central line — n workers serialize there, O(n) until
// the last observer. Under tree propagation (CancelPropTree, the
// default when the team has a barrier tree) the bits ride the fanout-k
/// arrival tree: pioneers copy the root's bits down their own path and
// each line is shared by at most fanout workers, so the last observer is
// O(fanout·log n) transfers away — the hierarchical-runtime argument
// (Thibault et al.) applied to cancellation.

import (
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/ompt"
)

// CancelKind names the construct a cancellation request applies to (the
// construct-type-clause of #pragma omp cancel).
type CancelKind int

// Cancellable construct kinds.
const (
	// CancelParallel cancels the innermost enclosing parallel region.
	CancelParallel CancelKind = iota
	// CancelFor cancels the innermost enclosing worksharing loop.
	CancelFor
	// CancelSections cancels the innermost enclosing sections construct.
	CancelSections
	// CancelTaskgroup cancels the current taskgroup: bodies of its
	// not-yet-started member tasks (descendants included) are discarded.
	CancelTaskgroup
)

func (k CancelKind) String() string {
	switch k {
	case CancelParallel:
		return "parallel"
	case CancelFor:
		return "for"
	case CancelSections:
		return "sections"
	case CancelTaskgroup:
		return "taskgroup"
	}
	return "cancel?"
}

// Team cancel bits (cancelFlags and the tree's per-node copies).
const (
	cancelBitParallel uint32 = 1 << iota
	cancelBitLoop
	cancelBitSections
)

// cancelWSBits are the worksharing bits a construct-closing barrier
// clears.
const cancelWSBits = cancelBitLoop | cancelBitSections

// Arg1 values of the ompt.Cancel event.
const (
	// cancelActivated: a thread (or the deadline alarm, Thread -1)
	// activated cancellation; Arg0 is the CancelKind.
	cancelActivated int64 = iota
	// cancelDiscardedTask: a cancelled task's body was skipped; Obj is
	// the task id.
	cancelDiscardedTask
)

// CancelProp selects how published cancel bits reach polling workers
// (Options.CancelProp).
type CancelProp int

// Propagation modes.
const (
	// CancelPropTree (the default): the bits propagate down the fanout-k
	// barrier tree; each line is shared by at most fanout workers, so
	// the team observes cancellation in O(fanout·log n) serialized
	// transfers. A team without an arrival tree (not BarrierHier, or
	// n == 1) falls back to flat.
	CancelPropTree CancelProp = iota
	// CancelPropFlat: every poll reads one central word; after a
	// publish all n observers miss on the same line and serialize.
	CancelPropFlat
)

// orWord atomically ORs bits into w, reporting whether any bit was new.
func orWord(w *exec.Word, bits uint32) bool {
	for {
		old := w.Load()
		if old&bits == bits {
			return false
		}
		if w.CompareAndSwap(old, old|bits) {
			return true
		}
	}
}

// Cancel activates cancellation of the given construct for the team (or
// of the current taskgroup) — #pragma omp cancel. It returns true when
// cancellation is enabled and was (or already had been) activated; the
// encountering thread must then branch to the end of the construct, as
// the compiled pragma does: return from the region body for parallel,
// stop issuing work after a for/sections/taskgroup cancel. With the
// OMP_CANCELLATION ICV off it does nothing and returns false.
//
// A cancelled for/sections construct must not be nowait: the construct's
// closing barrier is what retires the cancellation request.
func (w *Worker) Cancel(kind CancelKind) bool {
	t := w.team
	if !t.cancellable {
		return false
	}
	if kind == CancelTaskgroup {
		g := w.curGroup
		if g == nil {
			return false
		}
		w.cancelGroup(g)
		return true
	}
	var bit uint32
	switch kind {
	case CancelParallel:
		bit = cancelBitParallel
	case CancelFor:
		bit = cancelBitLoop
	case CancelSections:
		bit = cancelBitSections
	}
	if t.publishCancel(w.tc, bit) {
		w.emitCancel(kind, 0, cancelActivated)
	}
	w.cancelSeen |= bit // the canceller needs no poll to observe itself
	return true
}

// CancellationPoint polls for an active cancellation of the given
// construct kind — #pragma omp cancellation point. It returns true when
// the thread must branch to the end of the construct. A cancelled
// parallel construct also cancels the worksharing and taskgroup points
// inside it. With OMP_CANCELLATION off it is one branch and false.
func (w *Worker) CancellationPoint(kind CancelKind) bool {
	t := w.team
	if !t.cancellable {
		return false
	}
	if kind == CancelTaskgroup {
		return w.groupCancelled(w.curGroup) || t.parCancelled()
	}
	mask := cancelBitParallel
	switch kind {
	case CancelFor:
		mask |= cancelBitLoop
	case CancelSections:
		mask |= cancelBitSections
	}
	if w.pollCancel()&mask != 0 {
		return true
	}
	// A cancelled enclosing region cancels everything forked inside it.
	// publishCancel pushes the bit into registered sub-teams, so this
	// walk only fires in the window before the push lands (or for a
	// region forked concurrently with the publish).
	return t.parent != nil && t.ancestorCancelled()
}

// cancelGroup cancels taskgroup g: bodies of member tasks that have not
// started yet (descendant groups included) are discarded.
func (w *Worker) cancelGroup(g *taskgroup) {
	if g.cancelled.CompareAndSwap(0, 1) {
		w.emitCancel(CancelTaskgroup, g.id, cancelActivated)
	}
}

// groupCancelled walks the taskgroup nesting chain: cancelling a group
// cancels its descendant groups' tasks too.
func (w *Worker) groupCancelled(g *taskgroup) bool {
	for ; g != nil; g = g.parent {
		if g.cancelled.Load() == 1 {
			return true
		}
	}
	return false
}

// taskCancelled reports whether t's body must be discarded: the task's
// own parallel construct (not necessarily the executing thread's — a
// cross-team thief may be running it) is cancelled, or t's taskgroup
// (or an ancestor group) is.
func (w *Worker) taskCancelled(t *task) bool {
	if t.team.parCancelled() {
		return true
	}
	return t.group != nil && w.groupCancelled(t.group)
}

// publishCancel sets bits in the team's cancel word and pushes them to
// the poll surface: the central line under flat propagation, the tree
// root under hierarchical. Parallel cancellation also unparks threads
// blocked in a barrier or at the join, so they observe the cancel
// instead of waiting for arrivals that will never come. It reports
// whether any bit was newly set. Callers without a worker context (the
// deadline alarm) pass their own TC; the publish traffic is charged to
// the canceller.
func (t *Team) publishCancel(tc exec.TC, bits uint32) bool {
	if !orWord(&t.cancelFlags, bits) {
		return false
	}
	xfer := tc.Costs().CacheLineXferNS
	if t.cancelTree {
		root := &t.bar.nodes[t.bar.root]
		orWord(&root.cancel, bits)
		tc.Contend(&root.cancelLine, xfer)
	} else {
		tc.Contend(&t.cancelLine, xfer)
	}
	if bits&cancelBitParallel != 0 {
		tc.FutexWake(&t.barrier.gen, -1)
		tc.FutexWake(&t.joinBar.gen, -1)
		if t.subActive.Load() != 0 {
			// Cancellation propagates down the team hierarchy: every
			// active inner team inherits the parallel bit on its own
			// cancel word (and barrier tree), recursively, so inner
			// pollers observe the outer cancel at their usual cost. The
			// reverse never happens — an inner cancel stays scoped to the
			// inner team.
			for _, iw := range t.workers {
				st := iw.sub.Load()
				if st == nil || !st.cancellable {
					continue
				}
				if st.publishCancel(tc, cancelBitParallel) && st.n > 1 {
					st.emitCancelParallel(tc)
				}
			}
		}
	}
	return true
}

// emitCancelParallel emits the team-level Cancel event of a parallel
// cancellation activated on tc's behalf without a cancelling worker: a
// region forked under a cancelled ancestor, an outer cancel reaching an
// inner team, or a region deadline.
func (t *Team) emitCancelParallel(tc exec.TC) {
	if sp := t.rt.spine; sp.Enabled(ompt.Cancel) {
		sp.Emit(ompt.Event{Kind: ompt.Cancel, Thread: -1, CPU: int32(tc.CPU()),
			TimeNS: tc.Now(), Region: t.region, Level: int32(t.level),
			Tenant: t.rt.opts.Tenant,
			Arg0:   int64(CancelParallel), Arg1: cancelActivated})
	}
}

// pollCancel is the cancellation check at a scheduling point. It returns
// the team's active cancel bits, modeling the coherence cost of the
// poll: a poll that observes nothing new is a shared-state cache hit
// (free); the first poll after a publish pays the line transfer — on the
// one central line under flat propagation, on this worker's tree path
// under hierarchical. Never called with the ICV off (cancellable gates
// every call site), so the disabled fast path stays a single branch.
func (w *Worker) pollCancel() uint32 {
	t := w.team
	if t.cancelTree {
		return w.pollCancelTree()
	}
	v := t.cancelFlags.Load()
	if v != w.cancelSeen {
		// Coherence miss on the central line: after a publish, every
		// polling worker lands here and the misses serialize — the last
		// of n observers is O(n) transfers behind the cancel.
		w.tc.Contend(&t.cancelLine, w.tc.Costs().CacheLineXferNS)
		w.cancelSeen = v
	}
	return v
}

// pollCancelTree is the hierarchical poll: read the own leaf's copy
// (miss only when it changed, on a line shared by at most fanout
// siblings), and pull fresh root bits down the own path when the leaf
// has not heard yet. The first poller of each subtree pioneers the path
// — one transfer per level it updates; siblings behind it find their
// leaf already written and pay a single leaf miss.
func (w *Worker) pollCancelTree() uint32 {
	t := w.team
	bt := t.bar
	c := w.tc.Costs()
	leaf := &bt.nodes[bt.leafOf[w.id]]
	if v := leaf.cancel.Load(); v != w.cancelSeen {
		w.tc.Contend(&leaf.cancelLine, c.CacheLineXferNS)
		w.cancelSeen = v
		return v
	}
	root := bt.nodes[bt.root].cancel.Load()
	if root == w.cancelSeen {
		return w.cancelSeen
	}
	// Pioneer: copy the root's bits down this worker's leaf-to-root
	// path, top-down so a subtree's word is never ahead of its parent.
	var path [32]int
	depth := 0
	for ni := bt.leafOf[w.id]; ni >= 0; ni = bt.nodes[ni].parent {
		path[depth] = ni
		depth++
	}
	for i := depth - 1; i >= 0; i-- {
		nd := &bt.nodes[path[i]]
		if orWord(&nd.cancel, root) {
			w.tc.Contend(&nd.cancelLine, c.CacheLineXferNS)
		}
	}
	w.cancelSeen |= root
	return w.cancelSeen
}

// parCancelled is the cheap unmodeled check used where a poll's
// coherence cost is already paid by surrounding traffic (barrier
// arrival, task dispatch, ring-acquire spins). For a non-nested team
// the ancestor walk is one nil check.
func (t *Team) parCancelled() bool {
	if !t.cancellable {
		return false
	}
	if t.cancelFlags.Load()&cancelBitParallel != 0 {
		return true
	}
	return t.parent != nil && t.ancestorCancelled()
}

// ancestorCancelled walks the enclosing-team chain for an active
// parallel cancellation. It closes the race window between an outer
// publish and its push into this team's own cancel word (and covers
// teams forked concurrently with the publish).
func (t *Team) ancestorCancelled() bool {
	for p := t.parent; p != nil; p = p.parent {
		if p.cancellable && p.cancelFlags.Load()&cancelBitParallel != 0 {
			return true
		}
	}
	return false
}

// clearWSCancel ends a worksharing cancellation at the barrier closing
// the cancelled construct. A cancelled for/sections may not be nowait,
// so when the closing barrier completes no thread is inside a construct
// and no poller is live — the clear cannot race a pioneer copying stale
// bits back down the tree.
func (t *Team) clearWSCancel() {
	v := t.cancelFlags.Load()
	if v&cancelWSBits == 0 {
		return
	}
	keep := v & cancelBitParallel
	t.cancelFlags.Store(keep)
	if t.cancelTree {
		for i := range t.bar.nodes {
			t.bar.nodes[i].cancel.Store(keep)
		}
	}
}

// join is the implicit barrier ending a parallel region. Without the
// cancellation ICV it is the ordinary team barrier — bit-identical to
// the pre-cancellation runtime. With it, the join is a central-counter
// barrier on its own counter and generation (joinBar): a cancelled
// region abandons its inner barriers (parked waiters leave early, later
// barriers are skipped), so join arrivals must never be absorbed by a
// half-complete inner generation. libomp separates its fork-join barrier
// from the plain barrier for the same reason. The arrival, the wait and
// the completion are the team barrier's own (barrier.go); the join only
// never abandons, always releases with one wake-all, and leaves
// reductions and worksharing cancellations alone. A worker doomed here
// dies at this safe point, and removeWorker completes the join if needed.
func (w *Worker) join() {
	t := w.team
	b := &t.barrier
	if t.cancellable {
		b = &t.joinBar
	}
	w.barrier(b)
}

// armDeadline starts the region-deadline timer when both the
// cancellation ICV and a deadline (KOMP_REGION_DEADLINE / WithDeadline)
// are set: a region still running when the alarm fires is cancelled
// exactly as if a thread had executed Cancel(CancelParallel). The alarm
// runs on a context of its own — a timer proc on the simulator's DES
// clock, the timer goroutine's wall clock on the real layer. The
// returned stop disarms an unfired alarm; on the simulator a stopped
// alarm leaves no trace on virtual time.
func (rt *Runtime) armDeadline(tc exec.TC, t *Team) func() {
	ns := rt.opts.RegionDeadlineNS
	if !t.cancellable || ns <= 0 {
		return nil
	}
	al, ok := tc.(exec.Alarmer)
	if !ok {
		return nil
	}
	return al.Alarm(ns, func(atc exec.TC) {
		if t.publishCancel(atc, cancelBitParallel) {
			t.emitCancelParallel(atc)
		}
	})
}
