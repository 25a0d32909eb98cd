package sim

// FutexTable implements futex-style wait/wake keyed on word addresses.
// It is the primitive beneath the simulated pthread and OpenMP layers,
// mirroring how libomp on Linux ultimately blocks in futex(2).
//
// For fault injection the table supports two knobs:
//
//   - LoseWake: a deterministic predicate consulted once per would-be
//     woken waiter. When it returns true the wake-up is silently dropped
//     (the waiter stays parked), modeling a lost futex wake — the classic
//     missed-wakeup kernel bug class.
//   - Timed rechecks (SetRecheck): a waiter re-examines its word every
//     RecheckNS of virtual time and self-wakes if the value moved on
//     without it, which is exactly how futex timeouts paper over lost
//     wakes in production runtimes. The recheck budget bounds recovery
//     attempts so a genuine deadlock still terminates detection.
type FutexTable struct {
	sim    *Sim
	queues map[*uint32]*WaitQueue

	// free recycles emptied wait queues: a futex sleep/wake cycle on the
	// OpenMP fork/barrier fast path must not allocate, so Wake parks the
	// drained queue here instead of dropping it (keeping the map entry
	// itself would pin dead words forever; the free list pins nothing).
	free []*WaitQueue
	// slab holds the queues of the current allocation not yet handed out
	// (a team's workers first sleep on one gate word each, so queues are
	// made futexSlab at a time).
	slab []WaitQueue

	// LoseWake, if set, is asked before each individual wake delivery;
	// returning true drops that wake. It must be deterministic (driven by
	// the fault engine's seeded RNG).
	LoseWake func() bool

	// recheckNS is the timed-recheck period (0: no rechecks); budget caps
	// the number of rechecks a single Wait may arm.
	recheckNS     Time
	recheckBudget int

	// Stats.
	WakesLost int64 // wakes dropped by LoseWake
	Rechecks  int64 // timed rechecks that fired
	Recovered int64 // waiters recovered by a recheck (value had moved)
}

// futexSlab is how many wait queues one allocation provides.
const futexSlab = 32

// DefaultRecheckBudget bounds timed rechecks per Wait so that a genuinely
// dead proc stops re-arming and the deadlock detector can fire.
const DefaultRecheckBudget = 64

// NewFutexTable creates a futex table on s.
func NewFutexTable(s *Sim) *FutexTable {
	return &FutexTable{sim: s, queues: make(map[*uint32]*WaitQueue)}
}

// SetRecheck arms timed rechecks: every period ns of virtual time a
// blocked waiter re-reads its word and self-wakes if the value changed.
// budget caps rechecks per Wait call (<= 0 selects DefaultRecheckBudget).
func (t *FutexTable) SetRecheck(period Time, budget int) {
	if budget <= 0 {
		budget = DefaultRecheckBudget
	}
	t.recheckNS = period
	t.recheckBudget = budget
}

// Wait blocks p on addr if *addr still equals val, after charging entryCost
// (the syscall/trap path) to p's timeline. It returns true if the proc
// blocked (and has since been woken), false if the value check failed
// (EAGAIN in Linux terms).
func (t *FutexTable) Wait(p *Proc, addr *uint32, val uint32, entryCost Time) bool {
	if entryCost > 0 {
		p.Compute(entryCost)
	}
	if *addr != val {
		return false
	}
	q := t.queues[addr]
	if q == nil {
		if n := len(t.free); n > 0 {
			q, t.free[n-1], t.free = t.free[n-1], nil, t.free[:n-1]
		} else {
			if len(t.slab) == 0 {
				t.slab = make([]WaitQueue, futexSlab)
			}
			q, t.slab = &t.slab[0], t.slab[1:]
			q.init(t.sim, "waitqueue futex")
		}
		t.queues[addr] = q
	}
	if t.recheckNS > 0 {
		st := &recheckState{}
		t.armRecheck(p, q, addr, val, 1, st)
		// Disarm the pending recheck once the waiter resumes (or dies via
		// Kill, which unwinds through this defer), so fault-free runs
		// carry no leftover timer events.
		defer func() {
			if st.cancel != nil {
				st.cancel()
			}
		}()
	}
	q.Wait(p)
	return true
}

// recheckState carries the cancel handle of the currently armed recheck
// in a chain, so the waiter can disarm it on wake-up.
type recheckState struct{ cancel func() }

// armRecheck schedules the n-th timed recheck for p blocked on addr. If
// the recheck fires while p is still parked on q and the word has moved,
// p is extracted and woken (self-recovery from a lost wake). If the word
// is unchanged, the next recheck is armed until the budget runs out.
func (t *FutexTable) armRecheck(p *Proc, q *WaitQueue, addr *uint32, val uint32, n int, st *recheckState) {
	st.cancel = t.sim.AfterCancel(t.recheckNS, func() {
		st.cancel = nil
		if p.state != StateBlocked || p.wq != q {
			return // woken (or moved on) in the meantime
		}
		t.Rechecks++
		if *addr != val {
			q.Remove(p)
			if q.Len() == 0 && t.queues[addr] == q {
				t.retire(addr, q)
			}
			t.Recovered++
			t.sim.Unpark(p, t.sim.now)
			return
		}
		if n < t.recheckBudget {
			t.armRecheck(p, q, addr, val, n+1, st)
		}
	})
}

// Wake wakes up to n waiters on addr, charging entryCost to the caller and
// delivering wakeLatency (plus a per-waiter stagger) to each waiter. It
// returns the number of procs woken. Wakes may be dropped by the LoseWake
// fault hook; dropped wakes count against n (as in a real lost wake, the
// waker believes it delivered them).
func (t *FutexTable) Wake(p *Proc, addr *uint32, n int, entryCost, wakeLatency, stagger Time) int {
	if entryCost > 0 {
		p.Compute(entryCost)
	}
	q := t.queues[addr]
	if q == nil || q.Len() == 0 {
		return 0
	}
	if n < 0 || n > q.Len() {
		n = q.Len()
	}
	woken := 0
	at := p.Now()
	for i := 0; i < n; i++ {
		if t.LoseWake != nil && t.LoseWake() {
			t.WakesLost++
			continue
		}
		if q.WakeOne(at+Time(i)*stagger, wakeLatency) == nil {
			break
		}
		woken++
	}
	if q.Len() == 0 {
		t.retire(addr, q)
	}
	return woken
}

// retire drops an emptied queue's map entry and recycles the queue
// object for the next Wait on any address.
func (t *FutexTable) retire(addr *uint32, q *WaitQueue) {
	delete(t.queues, addr)
	t.free = append(t.free, q)
}

// Waiters returns the number of procs currently blocked on addr.
func (t *FutexTable) Waiters(addr *uint32) int {
	if q := t.queues[addr]; q != nil {
		return q.Len()
	}
	return 0
}
