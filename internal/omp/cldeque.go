package omp

import (
	"sync"
	"sync/atomic"

	"github.com/interweaving/komp/internal/exec"
)

// This file is the per-worker task deque: the lock-free Chase–Lev
// work-stealing deque (the default) and the mutex-guarded baseline it
// replaced (kept for the `-ablation tasking` comparison). Both obey the
// classic Cilk/libomp discipline — the owner pushes and pops at the
// bottom (LIFO, for locality), thieves steal from the top (FIFO,
// oldest-first) — and both charge their synchronization costs through
// the exec layer, so the simulated timeline prices each algorithm's
// cache-line behaviour and the real layer runs the same code under real
// atomics.

// TaskDequeAlgo selects the per-worker deque implementation.
type TaskDequeAlgo int

// Task deque algorithms.
const (
	// DequeChaseLev (the default): the Chase–Lev lock-free deque. The
	// owner's push/pop touch only the bottom index (no lock, no CAS on
	// the common path); thieves CAS the top index, so they serialize
	// only against each other on the top cache line, never against the
	// owner.
	DequeChaseLev TaskDequeAlgo = iota
	// DequeMutex: the original sync.Mutex-guarded slice. Every
	// operation — owner or thief — serializes on the deque's lock line,
	// and a steal pays an O(n) copy to close the head gap.
	DequeMutex
)

func (a TaskDequeAlgo) String() string {
	if a == DequeMutex {
		return "mutex"
	}
	return "chase-lev"
}

// taskDeque is the per-worker deque interface. Only the owning worker
// calls push/pop; any teammate may call steal; size is advisory (the
// cutoff heuristic reads it racily).
type taskDeque interface {
	push(tc exec.TC, t *task)
	pop(tc exec.TC) *task
	steal(tc exec.TC) *task
	size() int
	// reset restores the just-constructed state — empty, initial
	// capacity, cold cache-line history — between regions of a reused
	// hot team, so deque traffic prices exactly like on a fresh team
	// (ring growth is re-charged per region, the top line starts
	// unowned). It clears what was pushed since the last reset, so a
	// region that created no tasks pays nothing per slot. Called only at
	// fork, never concurrently with the region's own operations.
	reset()
}

func newTaskDeque(algo TaskDequeAlgo) taskDeque {
	if algo == DequeMutex {
		return &mutexDeque{}
	}
	return newCLDeque()
}

// --- Chase–Lev ---

// clRing is one circular buffer generation of a Chase–Lev deque. Slots
// are atomic pointers so a thief's read of a slot the owner is about to
// recycle is a benign stale read (the top CAS arbitrates ownership),
// not a data race.
type clRing struct {
	mask int64
	slot []atomic.Pointer[task]
}

func newCLRing(capacity int64) *clRing {
	return &clRing{mask: capacity - 1, slot: make([]atomic.Pointer[task], capacity)}
}

func (r *clRing) get(i int64) *task    { return r.slot[i&r.mask].Load() }
func (r *clRing) put(i int64, t *task) { r.slot[i&r.mask].Store(t) }
func (r *clRing) capacity() int64      { return r.mask + 1 }

// clDeque is the Chase–Lev work-stealing deque (Chase & Lev, SPAA '05;
// the libomp/Cilk deque). bottom is written only by the owner; top only
// advances, by a CAS from a thief or from the owner losing the
// last-element race. The ring grows by doubling; old generations stay
// valid for in-flight thieves because growth only copies, never
// mutates, live slots.
type clDeque struct {
	top    atomic.Int64
	bottom atomic.Int64
	ring   atomic.Pointer[clRing]

	// topLine is the cache line the top index lives on: every CAS on
	// top — thief steals and the owner's last-element race — serializes
	// here in the simulated timeline.
	topLine exec.Line

	// [cleanAt, dirtyTo) are the indices pushed to since the last reset:
	// cleanAt is where reset found the drained deque (top == bottom),
	// dirtyTo the owner's push high-water mark. Plain fields — push runs
	// on the owner inside a region, reset on the master between regions,
	// ordered by the join. bottom cannot stand in for dirtyTo: a push
	// followed by the owner's own pop returns it to its old value with
	// the pointer still in the slot.
	cleanAt, dirtyTo int64
}

// clInitialCap is the initial ring capacity (must be a power of two).
// EPCC's MASTER_TASK at InnerReps×threads outgrows it; the growth path
// is exercised by tests, the steady state stays allocation-free.
const clInitialCap = 64

func newCLDeque() *clDeque {
	d := &clDeque{}
	d.ring.Store(newCLRing(clInitialCap))
	return d
}

func (d *clDeque) size() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// push appends at the bottom (owner only): one plain store plus the
// bottom publish — an uncontended RMW in the cost model.
func (d *clDeque) push(tc exec.TC, t *task) {
	b := d.bottom.Load()
	top := d.top.Load()
	r := d.ring.Load()
	if b-top >= r.capacity() {
		r = d.grow(tc, r, b, top)
	}
	r.put(b, t)
	if b >= d.dirtyTo {
		d.dirtyTo = b + 1
	}
	d.bottom.Store(b + 1)
	tc.Charge(tc.Costs().AtomicRMWNS)
}

// grow doubles the ring, copying the live window [top, bottom). The old
// ring is never written again, so thieves holding it still read valid
// task pointers until their top CAS settles the race.
func (d *clDeque) grow(tc exec.TC, old *clRing, b, top int64) *clRing {
	c := tc.Costs()
	r := newCLRing(old.capacity() * 2)
	for i := top; i < b; i++ {
		r.put(i, old.get(i))
	}
	d.ring.Store(r)
	tc.Charge(c.MallocNS + (b-top)*copyNSPerTask)
	return r
}

// reset is called on a drained deque (top == bottom). The indices are
// deliberately NOT rewound: keeping them monotonic means a stale
// cross-team thief — one that read the previous region's indices and
// stalled — can never win a top CAS against a recycled index (the
// classic ABA), only observe the deque empty or steal a genuinely new
// task. Shrinking the ring back to the initial capacity and cooling the
// top line is what restores fresh-team pricing: growth is re-charged
// per region and the first contention starts from an unowned line.
// Nothing here is charged through a tc: virtual time cannot tell how
// many slots were cleared.
func (d *clDeque) reset() {
	r := d.ring.Load()
	if r.capacity() != clInitialCap {
		// The live window is empty, so there is nothing to copy and old
		// generations stay valid for any in-flight thief, exactly as in
		// grow.
		d.ring.Store(newCLRing(clInitialCap))
	} else {
		// Drop stale task pointers so a drained region's tasks are
		// collectable (a fresh ring starts nil-slotted too) — only the
		// slots pushed to since the last reset can hold one; the whole
		// ring once if the window wrapped it.
		lo, hi := d.cleanAt, d.dirtyTo
		if hi-lo > clInitialCap {
			hi = lo + clInitialCap
		}
		for i := lo; i < hi; i++ {
			r.put(i, nil)
		}
	}
	// The drained deque's position is read from top: an owner straggling
	// out of the previous join may be inside an empty pop, which holds
	// bottom one below top for an instant.
	d.cleanAt = d.top.Load()
	d.dirtyTo = d.cleanAt
	d.topLine = exec.Line{}
}

// pop removes from the bottom (owner only). The common path is
// lock-free and CAS-free; only when the last element is in play does
// the owner CAS the top against racing thieves.
func (d *clDeque) pop(tc exec.TC) *task {
	c := tc.Costs()
	b := d.bottom.Load() - 1
	r := d.ring.Load()
	d.bottom.Store(b)
	top := d.top.Load()
	if top > b {
		// Empty: restore and leave.
		d.bottom.Store(top)
		return nil
	}
	t := r.get(b)
	if top == b {
		// Last element: race thieves for it on the top line.
		tc.Contend(&d.topLine, c.AtomicRMWNS+c.CacheLineXferNS)
		if !d.top.CompareAndSwap(top, top+1) {
			t = nil // a thief got there first
		}
		d.bottom.Store(top + 1)
		return t
	}
	tc.Charge(c.AtomicRMWNS)
	return t
}

// steal removes from the top (any thief). A successful steal is one CAS
// on the top line; a lost CAS means another thief (or the owner's
// last-element pop) won, and the thief retries with fresh indices —
// the retry is one more bounce on the already-local line, far cheaper
// than abandoning the victim and paying a whole failed sweep. The loop
// terminates because every lost CAS is somebody else's progress: the
// deque drains toward the empty exit.
func (d *clDeque) steal(tc exec.TC) *task {
	c := tc.Costs()
	for {
		top := d.top.Load()
		b := d.bottom.Load()
		if top >= b {
			// Empty probe: the thief still pulled the victim's indices.
			tc.Charge(c.CacheLineXferNS)
			return nil
		}
		r := d.ring.Load()
		t := r.get(top)
		tc.Contend(&d.topLine, c.AtomicRMWNS+c.CacheLineXferNS)
		if d.top.CompareAndSwap(top, top+1) {
			return t
		}
	}
}

// --- mutex baseline ---

// copyNSPerTask prices moving one task pointer during the mutex deque's
// head-gap copy and the Chase–Lev ring growth.
const copyNSPerTask = 2

// mutexDeque is the baseline the tasking ablation measures against: a
// mutex around a slice. Owner and thieves all serialize on one lock
// line, and stealing from the head shifts the whole remainder down.
type mutexDeque struct {
	mu    sync.Mutex
	items []*task
	line  exec.Line
}

// lockNS is the modeled hold time of one lock/unlock pair on the
// deque's lock line.
func lockNS(c *exec.Costs) int64 { return 2*c.AtomicRMWNS + c.CacheLineXferNS }

func (d *mutexDeque) reset() {
	d.mu.Lock()
	for i := range d.items {
		d.items[i] = nil
	}
	d.items = d.items[:0]
	d.mu.Unlock()
	d.line = exec.Line{}
}

func (d *mutexDeque) size() int {
	d.mu.Lock()
	n := len(d.items)
	d.mu.Unlock()
	return n
}

func (d *mutexDeque) push(tc exec.TC, t *task) {
	tc.Contend(&d.line, lockNS(tc.Costs()))
	d.mu.Lock()
	d.items = append(d.items, t)
	d.mu.Unlock()
}

func (d *mutexDeque) pop(tc exec.TC) *task {
	tc.Contend(&d.line, lockNS(tc.Costs()))
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return nil
	}
	t := d.items[n-1]
	d.items[n-1] = nil
	d.items = d.items[:n-1]
	return t
}

func (d *mutexDeque) steal(tc exec.TC) *task {
	tc.Contend(&d.line, lockNS(tc.Costs()))
	d.mu.Lock()
	n := len(d.items)
	var t *task
	if n > 0 {
		t = d.items[0]
		copy(d.items, d.items[1:])
		d.items[n-1] = nil
		d.items = d.items[:n-1]
	}
	d.mu.Unlock()
	if t != nil {
		// The O(n) head-gap copy the Chase–Lev deque exists to remove.
		// Charged after the unlock: on the simulator a charge suspends
		// the proc, and suspending while holding the Go mutex would
		// block other procs outside the simulator's control.
		tc.Charge(int64(n) * copyNSPerTask)
	}
	return t
}
