package omp

import (
	"sync"

	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/pthread"
)

// Critical executes fn inside the named critical section. The unnamed
// section is the empty name; all unnamed criticals share one mutex,
// exactly as in OpenMP.
func (w *Worker) Critical(name string, fn func()) {
	e := w.team.rt.criticalEntry(name)
	w.emitSync(ompt.SyncAcquire, ompt.SyncCritical, e.id)
	e.m.Lock(w.tc)
	w.emitSync(ompt.SyncAcquired, ompt.SyncCritical, e.id)
	fn()
	e.m.Unlock(w.tc)
	w.emitSync(ompt.SyncRelease, ompt.SyncCritical, e.id)
}

// atomicMu serializes every Atomic update of the process on the host —
// libomp's __kmp_atomic_lock, the fallback it takes for an update no
// single instruction performs. Contend prices the simulated cache-line
// traffic; the mutex is what makes the update atomic on real goroutines.
var atomicMu sync.Mutex

// Atomic executes fn as an atomic update; updates to the shared location
// serialize on its cache line across the team. fn must be a plain
// update: it runs under a process-wide host lock, so it must not call
// runtime constructs (a simulated thread that blocked or charged time
// inside it would stall every other thread of the process).
func (w *Worker) Atomic(fn func()) {
	c := w.tc.Costs()
	w.tc.Contend(&w.team.atomicLine, c.AtomicRMWNS+c.CacheLineXferNS)
	atomicMu.Lock()
	defer atomicMu.Unlock()
	fn()
}

// ReduceOp is a reduction operator.
type ReduceOp int

// Reduction operators.
const (
	ReduceSum ReduceOp = iota
	ReduceProd
	ReduceMax
	ReduceMin
)

// Apply combines two values.
func (op ReduceOp) Apply(a, b float64) float64 {
	switch op {
	case ReduceProd:
		return a * b
	case ReduceMax:
		if a > b {
			return a
		}
		return b
	case ReduceMin:
		if a < b {
			return a
		}
		return b
	default:
		return a + b
	}
}

// Identity returns the operator identity element.
func (op ReduceOp) Identity() float64 {
	switch op {
	case ReduceProd:
		return 1
	case ReduceMax:
		return negInf
	case ReduceMin:
		return posInf
	default:
		return 0
	}
}

const (
	negInf = -1.797693134862315708145274237317043567981e308
	posInf = 1.797693134862315708145274237317043567981e308
)

// Reduce combines each thread's contribution and returns the reduced
// value on every thread. The combine is fused into the team barrier:
// each thread writes its slot, arms the reduction round, and arrives.
// Under the hierarchical barrier every arrival-tree node that completes
// folds its subtree's inputs — O(fanout) work per node — and the root's
// partial is the result; under flat arrival the completer does one O(n)
// scan. Either way the reduction costs exactly one barrier, not the two
// barriers plus a per-thread O(n) scan of the classic algorithm.
func (w *Worker) Reduce(op ReduceOp, val float64) float64 {
	t := w.team
	if t.n == 1 {
		return val
	}
	if w.doomed() {
		w.die() // safe point: die before contributing, as at a barrier
	}
	if t.parCancelled() {
		// Cancelled region: the barrier this reduction would fuse into
		// is abandoned, so arming a round could never complete. The
		// local value stands in for the unreduced result.
		return val
	}
	round := w.redSeen + 1
	w.redSeen = round
	t.redSlots[w.id] = val
	t.redMark[w.id] = round
	// Every live thread stores the same op and round (SPMD), so the
	// racing stores are idempotent. The slot writes above are published
	// to the completer by the arrival counter's fetch-and-add.
	t.redOp.Store(uint32(op))
	t.redArmed.Store(round)
	w.Barrier()
	// The release publishes redResult (written before the generation
	// bump); one line transfer fetches the broadcast value.
	w.tc.Charge(w.tc.Costs().CacheLineXferNS)
	return t.redResult
}

// --- omp_lock_t / omp_nest_lock_t ---

// Lock is an OpenMP lock (omp_lock_t), a plain pthread mutex underneath.
type Lock struct {
	m  *pthread.Mutex
	id uint64 // spine lock id
}

// NewLock creates a lock (omp_init_lock).
func (rt *Runtime) NewLock() *Lock {
	return &Lock{m: rt.lib.NewMutex(), id: rt.lockSeq.Add(1)}
}

// Set acquires the lock (omp_set_lock).
func (l *Lock) Set(w *Worker) {
	w.emitSync(ompt.SyncAcquire, ompt.SyncLock, l.id)
	l.m.Lock(w.tc)
	w.emitSync(ompt.SyncAcquired, ompt.SyncLock, l.id)
}

// Unset releases the lock (omp_unset_lock).
func (l *Lock) Unset(w *Worker) {
	l.m.Unlock(w.tc)
	w.emitSync(ompt.SyncRelease, ompt.SyncLock, l.id)
}

// Test attempts the lock without blocking (omp_test_lock).
func (l *Lock) Test(w *Worker) bool {
	if !l.m.TryLock(w.tc) {
		return false
	}
	w.emitSync(ompt.SyncAcquired, ompt.SyncLock, l.id)
	return true
}

// NestLock is an OpenMP nestable lock (omp_nest_lock_t).
type NestLock struct {
	m     *pthread.Mutex
	id    uint64 // spine lock id
	mu    sync.Mutex
	owner *Worker
	depth int
}

// NewNestLock creates a nestable lock.
func (rt *Runtime) NewNestLock() *NestLock {
	return &NestLock{m: rt.lib.NewMutex(), id: rt.lockSeq.Add(1)}
}

// Set acquires the nestable lock, incrementing the nesting depth when the
// caller already owns it.
func (l *NestLock) Set(w *Worker) int {
	w.emitSync(ompt.SyncAcquire, ompt.SyncLock, l.id)
	l.mu.Lock()
	if l.owner == w {
		l.depth++
		d := l.depth
		l.mu.Unlock()
		w.tc.Charge(w.tc.Costs().AtomicRMWNS)
		w.emitSync(ompt.SyncAcquired, ompt.SyncLock, l.id)
		return d
	}
	l.mu.Unlock()
	l.m.Lock(w.tc)
	l.mu.Lock()
	l.owner = w
	l.depth = 1
	l.mu.Unlock()
	w.emitSync(ompt.SyncAcquired, ompt.SyncLock, l.id)
	return 1
}

// Unset releases one nesting level, dropping the lock at depth zero. It
// returns the remaining depth.
func (l *NestLock) Unset(w *Worker) int {
	l.mu.Lock()
	if l.owner != w {
		l.mu.Unlock()
		panic("omp: NestLock.Unset by non-owner")
	}
	l.depth--
	d := l.depth
	if d == 0 {
		l.owner = nil
		l.mu.Unlock()
		l.m.Unlock(w.tc)
		w.emitSync(ompt.SyncRelease, ompt.SyncLock, l.id)
		return 0
	}
	l.mu.Unlock()
	w.emitSync(ompt.SyncRelease, ompt.SyncLock, l.id)
	return d
}
