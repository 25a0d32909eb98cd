package omp

import (
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/ompt"
)

// This file is the team barrier: the hierarchical combining-tree arrival
// (BarrierHier, the default), the flat central-counter arrival
// (BarrierFlat/BarrierTree, and the cancellable join), the one
// arrive-wait-release path and the one completion every barrier shares,
// the tree release, the fused reduction combine, and the team-shrink
// removal paths.
//
// Hierarchical arrival: workers arrive at a fanout-k tree of per-node
// counters, each on its own cache line, so a full barrier costs O(k·log n)
// serialized line transfers on the critical path instead of n bounces on
// one central line. Each node tracks {remaining, alive}: arrivals and
// removals both count down `remaining`, and the decrement that takes a
// node to zero is the unique event that propagates one arrival to the
// parent — atomicity of the fetch-and-add makes the propagation
// exactly-once even when an arriving worker races a dying one.

// fanout is the arity of every tree the team builds: the barrier
// arrival tree (and the cancel bits riding it), the tree release and
// the fork tree. 4 is libomp's branching factor.
const fanout = 4

// barNode is one node of the arrival tree. A leaf covers a group of up to
// fanout workers; an internal node covers a contiguous run of child
// nodes.
type barNode struct {
	line      exec.Line // the cache line this node's counters live on
	remaining exec.Word // arrivals still pending this round
	alive     exec.Word // live members (workers or child subtrees)
	mark      exec.Word // reduction round `partial` was combined for
	partial   float64   // combined contribution of this subtree
	// cancel is this subtree's copy of the team cancel bits under tree
	// propagation (cancel.go): pollers read their own leaf's copy — a
	// line shared by at most fanout siblings — instead of all missing on
	// one central line. cancelLine is the line those polls contend on.
	cancel     exec.Word
	cancelLine exec.Line
	parent     int // node index; -1 at the root
	first      int // first worker id (leaf) or first child node index
	count      int // member count
	leaf       bool
}

// barTree is a team's arrival tree. Nodes are stored level by level,
// leaves first, so an internal node's children are contiguous indices.
type barTree struct {
	nodes  []barNode
	leafOf []int // worker id -> leaf node index
	root   int
}

func newBarTree(n, k int) *barTree {
	bt := &barTree{leafOf: make([]int, n)}
	level := make([]int, 0, (n+k-1)/k)
	for s := 0; s < n; s += k {
		cnt := min(k, n-s)
		bt.nodes = append(bt.nodes, barNode{parent: -1, first: s, count: cnt, leaf: true})
		ni := len(bt.nodes) - 1
		level = append(level, ni)
		for i := s; i < s+cnt; i++ {
			bt.leafOf[i] = ni
		}
	}
	for len(level) > 1 {
		next := make([]int, 0, (len(level)+k-1)/k)
		for s := 0; s < len(level); s += k {
			cnt := min(k, len(level)-s)
			ni := len(bt.nodes)
			bt.nodes = append(bt.nodes, barNode{parent: -1, first: level[s], count: cnt})
			for j := 0; j < cnt; j++ {
				bt.nodes[level[s+j]].parent = ni
			}
			next = append(next, ni)
		}
		level = next
	}
	bt.root = level[0]
	for i := range bt.nodes {
		nd := &bt.nodes[i]
		nd.alive.Store(uint32(nd.count))
		nd.remaining.Store(uint32(nd.count))
	}
	return bt
}

// doomed reports whether this worker's CPU has been taken offline. The
// pw.team check scopes the doom to the worker's own dispatch: a pool
// worker acting as the master of an inner team runs that team on a
// Worker whose pw is nil, so the inner region always completes — and
// shrink drains inner teams — before the worker dies at an outer safe
// point.
func (w *Worker) doomed() bool {
	return w.pw != nil && w.pw.doom.Load() == 1 && w.pw.team == w.team
}

// die removes this worker from the team at a safe point and unwinds it
// out of the region body; the pool thread then exits for good.
func (w *Worker) die() {
	w.removeWorker(w.id)
	panic(offlineSignal{})
}

// barCounter is one barrier's generation word plus the central arrival
// counter the flat and tree algorithms — and the cancellable join —
// arrive on, with the cache line those arrivals bounce on.
type barCounter struct {
	gen     exec.Word // bumped by each completion; waiters sleep on it
	arrived exec.Word
	line    exec.Line
}

// Barrier synchronizes the team (a task scheduling point: waiting threads
// execute queued tasks, and the barrier completes only when the task pool
// is drained).
func (w *Worker) Barrier() { w.barrier(&w.team.barrier) }

// barrier arrives at b — the team barrier, or the cancellable region's
// join (cancel.go) — and waits for its release. Both run this one code
// path; only the team barrier is abandoned by a parallel cancellation,
// releases through the tree, and retires worksharing cancellations. The
// wrappers around it stay small enough to inline, so a wait parks no
// deeper in the call stack than the construct that entered it.
func (w *Worker) barrier(b *barCounter) {
	t := w.team
	team := b == &t.barrier
	if team && t.n == 1 {
		w.drainAllTasks()
		return
	}
	if w.doomed() {
		w.die() // safe point: leave the team instead of arriving
	}
	if team && t.parCancelled() {
		// The region is cancelled: this barrier is abandoned — arriving
		// could wait forever on threads that already skipped their
		// constructs. Every thread converges at the dedicated join
		// barrier instead.
		return
	}
	// SyncAcquire marks the arrival, SyncAcquired the release — emitted
	// on every exit path (completer and waiters alike), so per-thread
	// event sequences are identical regardless of who completes.
	w.emitSync(ompt.SyncAcquire, ompt.SyncBarrier, 0)
	gen := b.gen.Load()
	var done bool
	if team && t.bar != nil {
		// done: this thread finished the root and released the team.
		done = w.hierArrive()
	} else {
		done = w.arriveFlat(b)
	}
	if !done {
		// The generation wait, the scheduling point of every barrier:
		// until the generation moves, help with the tasks a waiter can
		// reach — own team first, then (once teams nest) enclosing and
		// sibling teams — and sleep on the generation only when there
		// are none.
		for b.gen.Load() == gen {
			if team && t.parCancelled() {
				// Cancelled while waiting (publishCancel wakes parked
				// waiters): leave without release — the generation never
				// completes, and nothing downstream relies on it. The
				// join never abandons.
				w.emitSync(ompt.SyncAcquired, ompt.SyncBarrier, 0)
				return
			}
			if t.pendingWork() {
				if !w.runOneTask() {
					w.tc.Yield()
				}
				continue
			}
			tag := t.addSleeper()
			if !t.pendingWork() {
				// Re-checked after publishing sleepers so a racing task
				// producer either sees this sleeper or this sleeper sees
				// its task (the wake itself can still slip between the
				// check and the wait; the completer's wake-all recovers).
				w.tc.FutexWait(&b.gen, gen)
			}
			t.removeSleeper(tag)
		}
		if team && t.fanRelease {
			w.treeRelease()
		}
	}
	if team && t.cancellable {
		// A worksharing cancellation retires at its construct's closing
		// barrier: the completer cleared the loop/sections bits, and
		// every thread re-bases its poll cache here so the next
		// construct starts clean.
		w.cancelSeen = t.cancelFlags.Load()
	}
	w.emitSync(ompt.SyncAcquired, ompt.SyncBarrier, 0)
}

// arriveFlat counts this thread in on b's central counter — every
// arrival bounces the same line — and completes the barrier when it is
// the last live arrival, reporting whether it did.
func (w *Worker) arriveFlat(b *barCounter) bool {
	c := w.tc.Costs()
	w.tc.Contend(&b.line, c.AtomicRMWNS+c.CacheLineXferNS)
	if arrived := b.arrived.Add(1); arrived >= w.team.alive.Load() {
		w.completeBarrier(b, arrived-1)
		return true
	}
	return false
}

// removeArrival completes b on behalf of a removed worker when the
// arrivals already counted there are every live thread (alive is the
// live count after the removal).
func (w *Worker) removeArrival(b *barCounter, alive uint32) {
	if arrived := b.arrived.Load(); alive > 0 && arrived > 0 && arrived >= alive {
		w.completeBarrier(b, arrived)
	}
}

// hierArrive walks this worker's arrival path up the tree. It returns
// true when this worker completed the root — i.e. it was the last live
// arrival and has already run completeBarrier; the caller returns
// immediately. Otherwise the caller waits on the generation.
func (w *Worker) hierArrive() bool {
	t := w.team
	bt := t.bar
	c := w.tc.Costs()
	ni := bt.leafOf[w.id]
	for {
		nd := &bt.nodes[ni]
		// Siblings serialize on the node's line only; other subtrees
		// proceed in parallel.
		w.tc.Contend(&nd.line, c.AtomicRMWNS+c.CacheLineXferNS)
		if nd.remaining.Add(^uint32(0)) != 0 {
			return false
		}
		w.combineNode(ni)
		if nd.parent < 0 {
			w.completeBarrier(&t.barrier, t.alive.Load()-1)
			return true
		}
		ni = nd.parent
	}
}

// hierRemove is removeWorker's tree walk: the removed worker's leaf loses
// a member permanently (alive and remaining both count down). If that
// zeroes `remaining`, either the whole subtree is dead — the parent loses
// a child for good, and the removal recurses — or live siblings already
// arrived and the removal doubles as the subtree's completion, which
// propagates upward as an ordinary arrival.
func (w *Worker) hierRemove(id int) {
	t := w.team
	bt := t.bar
	c := w.tc.Costs()
	ni := bt.leafOf[id]
	removing := true
	for {
		nd := &bt.nodes[ni]
		w.tc.Contend(&nd.line, c.AtomicRMWNS+c.CacheLineXferNS)
		subtreeAlive := uint32(1)
		if removing {
			subtreeAlive = nd.alive.Add(^uint32(0))
		}
		if nd.remaining.Add(^uint32(0)) != 0 {
			return
		}
		if removing && subtreeAlive == 0 {
			// No survivors below: the parent's membership shrinks too.
			if nd.parent < 0 {
				return // whole team dead; nobody left to release
			}
			ni = nd.parent
			continue
		}
		// Live members of this subtree had all arrived; the removal
		// completes the node on their behalf.
		w.combineNode(ni)
		if nd.parent < 0 {
			// Every live thread is a waiter (the remover is not waiting).
			w.completeBarrier(&t.barrier, t.alive.Load())
			return
		}
		ni = nd.parent
		removing = false
	}
}

// combineNode folds the node's reduction inputs into its partial when the
// barrier in flight is a fused reduction (redArmed ahead of redDone); a
// plain barrier skips it. Leaves fold their workers' contribution slots,
// internal nodes their children's partials — O(fanout) work per node in
// place of the per-thread O(n) scan of the two-barrier algorithm. Stale
// marks are slots of workers that died before contributing.
func (w *Worker) combineNode(ni int) {
	t := w.team
	round := t.redArmed.Load()
	if round == t.redDone.Load() {
		return
	}
	op := ReduceOp(t.redOp.Load())
	nd := &t.bar.nodes[ni]
	acc := op.Identity()
	if nd.leaf {
		for i := nd.first; i < nd.first+nd.count; i++ {
			if t.redMark[i] == round {
				acc = op.Apply(acc, t.redSlots[i])
			}
		}
	} else {
		for ci := nd.first; ci < nd.first+nd.count; ci++ {
			ch := &t.bar.nodes[ci]
			if ch.mark.Load() == round {
				acc = op.Apply(acc, ch.partial)
			}
		}
	}
	w.tc.Charge(int64(nd.count) * w.tc.Costs().CacheLineXferNS / 4)
	nd.partial = acc
	nd.mark.Store(round)
}

// completeBarrier completes barrier b on behalf of the last arrival — or
// of a dying worker whose removal satisfied the count, which is how a
// team that shrinks (and cancels) at a barrier still converges. waiters
// is the number of threads blocked on b.gen. It drains the task pool,
// publishes a fused reduction's result and retires worksharing
// cancellations (the team barrier only: the join closes no construct,
// and a reduction a cancel abandoned stays unfolded), re-arms the
// arrival counters and releases the waiters.
func (w *Worker) completeBarrier(b *barCounter, waiters uint32) {
	t := w.team
	tc := w.tc
	if t.pending.Load() > 0 {
		// Recruit the parked team: woken waiters see the unchanged
		// generation and help drain alongside the completer instead of
		// sleeping through a serial drain.
		tc.FutexWake(&b.gen, -1)
	}
	w.drainAllTasks()
	team := b == &t.barrier
	if round := t.redArmed.Load(); team && round != t.redDone.Load() {
		if t.bar != nil {
			t.redResult = t.bar.nodes[t.bar.root].partial
		} else {
			// Flat arrival: one O(n) scan by the completer replaces the
			// per-thread scans of the two-barrier algorithm.
			op := ReduceOp(t.redOp.Load())
			acc := op.Identity()
			for i := 0; i < t.n; i++ {
				if t.redMark[i] == round {
					acc = op.Apply(acc, t.redSlots[i])
				}
			}
			tc.Charge(int64(t.n) * tc.Costs().CacheLineXferNS / 4)
			t.redResult = acc
		}
		t.redDone.Store(round)
	}
	if t.cancellable && team {
		t.clearWSCancel()
	}
	if t.bar != nil && team {
		for i := range t.bar.nodes {
			nd := &t.bar.nodes[i]
			nd.remaining.Store(nd.alive.Load())
		}
	} else {
		// Only a flat arrival dirtied the central counter. Under the tree
		// it is left alone: a store would pull the generation's line away
		// from the waiters polling it just before the release.
		b.arrived.Store(0)
	}
	if !team || !t.fanRelease {
		b.gen.Add(1)
		// Wake storm: the single waker pays for every wake.
		tc.FutexWake(&b.gen, -1)
		return
	}
	t.relBudget.Store(waiters)
	b.gen.Add(1)
	w.treeRelease()
}

// treeRelease fans the post-barrier wake-up out: each released thread
// takes up to fanout wakes from the shared budget and issues them
// before going on, so the release completes in O(log n) wake latencies
// instead of one thread paying for all n.
func (w *Worker) treeRelease() {
	t := w.team
	tc := w.tc
	for k := 0; k < fanout; k++ {
		n := t.relBudget.Load()
		if n == 0 {
			return
		}
		if !t.relBudget.CompareAndSwap(n, n-1) {
			k--
			continue
		}
		tc.FutexWake(&t.barrier.gen, 1)
	}
}
