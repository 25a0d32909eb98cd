package omp

import "github.com/interweaving/komp/internal/ompt"

// Task dependences (#pragma omp task depend(in/out/inout: x)). Per the
// spec, depend clauses order *sibling* tasks — tasks with the same
// parent — by the storage locations they name. The encountering thread
// resolves each new task's clauses against the parent's address →
// last-accessor map; a task with unfinished predecessors is held (not
// queued) and released by the completion of its last predecessor.

// DepMode is a depend clause's dependence type.
type DepMode uint8

// Dependence types.
const (
	// DepIn: the task reads the location. In tasks depend on the last
	// out/inout task, and any number of them run concurrently.
	DepIn DepMode = iota
	// DepOut: the task writes the location: it depends on the previous
	// writer and on every reader since.
	DepOut
	// DepInOut: read-modify-write; same ordering as DepOut.
	DepInOut
)

func (m DepMode) String() string {
	switch m {
	case DepOut:
		return "out"
	case DepInOut:
		return "inout"
	}
	return "in"
}

// Dep is one depend clause item: a mode and the storage location it
// names. Addr must be a pointer (any pointer type); tasks naming the
// same pointer are ordered, tasks naming different pointers are not —
// exactly the list-item aliasing rule of the spec.
type Dep struct {
	Mode DepMode
	Addr any
}

// In returns a depend(in: *addr) clause item.
func In(addr any) Dep { return Dep{Mode: DepIn, Addr: addr} }

// Out returns a depend(out: *addr) clause item.
func Out(addr any) Dep { return Dep{Mode: DepOut, Addr: addr} }

// InOut returns a depend(inout: *addr) clause item.
func InOut(addr any) Dep { return Dep{Mode: DepInOut, Addr: addr} }

// depEntry is the dependence state of one storage location within one
// task region: the last writer and the readers that followed it. Each
// slot holds a reference to the task it names, so the task's record —
// depMu and depDone, which addDepEdge reads — outlives its completion
// until the slot is overwritten or the tracker is reset.
type depEntry struct {
	lastOut *task
	readers []*task
}

// depTracker is a parent task's address → last-accessor map. Only the
// thread currently executing the parent's body creates that parent's
// children, so the map needs no lock; the release path never touches
// it (it walks per-task successor lists instead). free holds the
// entries of past resets, readers capacity kept, so a tracker that sees
// the same addresses region after region allocates nothing.
type depTracker struct {
	last map[any]*depEntry
	free []*depEntry
}

func (dt *depTracker) entry(addr any) *depEntry {
	if dt.last == nil {
		dt.last = make(map[any]*depEntry)
	}
	e := dt.last[addr]
	if e == nil {
		if n := len(dt.free); n > 0 {
			e, dt.free = dt.free[n-1], dt.free[:n-1]
		} else {
			e = &depEntry{}
		}
		dt.last[addr] = e
	}
	return e
}

// reset empties the tracker once its task's body can create no more
// children, releasing the references its slots hold. The map keeps its
// buckets and the entries go to the free list.
func (dt *depTracker) reset(w *Worker) {
	if len(dt.last) == 0 {
		return
	}
	for _, e := range dt.last {
		if e.lastOut != nil {
			w.unref(e.lastOut)
			e.lastOut = nil
		}
		w.dropReaders(e)
		dt.free = append(dt.free, e)
	}
	clear(dt.last)
}

// dropReaders releases e's reader slots.
func (w *Worker) dropReaders(e *depEntry) {
	for _, r := range e.readers {
		w.unref(r)
	}
	clear(e.readers)
	e.readers = e.readers[:0]
}

// registerDeps resolves t's depend clauses against the parent's
// tracker, creating predecessor edges. It returns with t.npred holding
// the number of unfinished predecessors; the extra +1 the caller seeded
// keeps t unreleasable until the caller decides where it goes.
func (w *Worker) registerDeps(t *task, deps []Dep) {
	parent := t.parent
	if parent.deps == nil {
		parent.deps = &depTracker{}
	}
	dt := parent.deps
	for _, d := range deps {
		e := dt.entry(d.Addr)
		switch d.Mode {
		case DepIn:
			w.addDepEdge(e.lastOut, t)
			t.refs.Add(1)
			e.readers = append(e.readers, t)
		default: // DepOut, DepInOut
			w.addDepEdge(e.lastOut, t)
			for _, r := range e.readers {
				w.addDepEdge(r, t)
			}
			t.refs.Add(1)
			if prev := e.lastOut; prev != nil {
				w.unref(prev)
			}
			e.lastOut = t
			w.dropReaders(e)
		}
	}
}

// addDepEdge makes succ wait on pred unless pred already finished (or
// is succ itself, via a duplicate clause address). npred is incremented
// before the edge is published in pred.succs: once pred's completion can
// see succ, the count already reflects the edge, so the release-side
// decrement cannot collide with the creator's phantom removal.
func (w *Worker) addDepEdge(pred, succ *task) {
	if pred == nil || pred == succ {
		return
	}
	pred.depMu.Lock()
	if pred.depDone {
		pred.depMu.Unlock()
		return
	}
	succ.npred.Add(1)
	pred.succs = append(pred.succs, succ)
	pred.depMu.Unlock()
	w.team.rt.TaskDepEdges.Add(1)
	w.emitTask(ompt.TaskDependence, succ.id, int64(pred.id))
}

// releaseDeps marks t finished for dependence purposes and releases
// every successor whose last predecessor t was; released tasks join
// this worker's deque. Once depDone is set no edge can be added, so the
// successor list is read without the lock, and its backing array stays
// with the record for the next task to reuse.
func (w *Worker) releaseDeps(t *task) {
	t.depMu.Lock()
	t.depDone = true
	t.depMu.Unlock()
	w.releaseSuccs(t.succs)
	clear(t.succs)
	t.succs = t.succs[:0]
}

func (w *Worker) releaseSuccs(succs []*task) {
	for _, s := range succs {
		if !s.undeferred {
			if s.npred.Add(^uint32(0)) == 0 {
				w.deque.push(w.tc, s)
				w.wakeThief()
			}
			continue
		}
		// The encountering thread is in waitCount, blocked on npred or
		// busy helping; once npred drains it runs the body inline and may
		// finish the task at once. The reference keeps the record off the
		// free lists until the wake is delivered.
		s.refs.Add(1)
		if s.npred.Add(^uint32(0)) == 0 {
			w.tc.FutexWake(&s.npred, -1)
		}
		w.unref(s)
	}
}
