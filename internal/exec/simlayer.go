package exec

import (
	"sync/atomic"

	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/sim"
)

// SimLayer executes threads as procs of the deterministic discrete-event
// simulator, charging every primitive from an environment cost table.
// All the paper's figures are regenerated on this layer.
type SimLayer struct {
	Sim   *sim.Sim
	costs Costs
	ft    *sim.FutexTable

	// SpawnHook, if set, is invoked on the spawning thread for every
	// Spawn. The simulated kernels use it to add scheduler bookkeeping
	// (e.g. a kernel thread object) or extra environment costs.
	SpawnHook func(tc TC, cpu int)

	// Spine, if set before Run, receives ThreadBegin/ThreadEnd for the
	// main proc and every spawned proc, stamped with virtual time. Thread
	// indices are assigned in spawn order, which the simulator makes
	// deterministic.
	Spine *ompt.Spine

	tidSeq atomic.Int32
}

// NewSimLayer wraps a simulator with an environment cost table.
func NewSimLayer(s *sim.Sim, costs Costs) *SimLayer {
	return &SimLayer{Sim: s, costs: costs, ft: sim.NewFutexTable(s)}
}

// NumCPUs returns the simulator's CPU count.
func (l *SimLayer) NumCPUs() int { return l.Sim.NumCPU() }

// FaultFutex installs a lost-wake fault on the layer's futex table and
// arms the timed-recheck recovery path: lose is consulted per delivered
// wake (true drops it), and blocked waiters re-check their word every
// recheckNS of virtual time so a dropped wake stalls the waiter instead
// of hanging it forever.
func (l *SimLayer) FaultFutex(lose func() bool, recheckNS int64) {
	l.ft.LoseWake = lose
	l.ft.SetRecheck(recheckNS, 0)
}

// Costs returns the environment cost table.
func (l *SimLayer) Costs() *Costs { return &l.costs }

// Run starts main as a proc on CPU 0 at the current virtual time and runs
// the simulator to completion. It returns the virtual nanoseconds elapsed
// between the call and the last event.
func (l *SimLayer) Run(main func(TC)) (int64, error) {
	start := l.Sim.Now()
	l.Sim.Go("main", 0, start, func(p *sim.Proc) {
		tc := &simTC{layer: l, proc: p}
		sp := l.Spine
		tid := l.tidSeq.Add(1) - 1
		if sp.Enabled(ompt.ThreadBegin) {
			sp.Emit(ompt.Event{Kind: ompt.ThreadBegin, Thread: tid, TimeNS: tc.Now()})
		}
		main(tc)
		if sp.Enabled(ompt.ThreadEnd) {
			sp.Emit(ompt.Event{Kind: ompt.ThreadEnd, Thread: tid, TimeNS: tc.Now()})
		}
	})
	if err := l.Sim.Run(); err != nil {
		return l.Sim.Now() - start, err
	}
	return l.Sim.Now() - start, nil
}

type simTC struct {
	layer *SimLayer
	proc  *sim.Proc
}

// ProcHolder is implemented by simulator-backed thread contexts; the
// kernel layers use it to attach kernel thread state to the underlying
// proc.
type ProcHolder interface {
	Proc() *sim.Proc
}

// Proc exposes the underlying simulator proc (used by the kernel layers).
func (t *simTC) Proc() *sim.Proc { return t.proc }

func (t *simTC) CPU() int { return t.proc.CPUID() }

// MoveCPU rebinds the proc; the move takes effect at the next compute
// segment (sim.Proc.SetCPU).
func (t *simTC) MoveCPU(cpu int) { t.proc.SetCPU(cpu) }

func (t *simTC) NumCPUs() int  { return t.layer.Sim.NumCPU() }
func (t *simTC) Costs() *Costs { return &t.layer.costs }

func (t *simTC) Charge(ns int64) {
	if ns > 0 {
		t.proc.Compute(ns)
	}
}

// Contend serializes on the line: the proc stalls (occupying its CPU,
// as a spinning CAS does) until the line frees, then owns it for ns.
func (t *simTC) Contend(l *Line, ns int64) {
	if ns <= 0 {
		return
	}
	now := t.proc.Now()
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	end := start + ns
	l.freeAt = end
	t.proc.Compute(end - now)
}

func (t *simTC) Now() int64 { return t.proc.Now() }

// minYieldNS guarantees that a yield advances virtual time: a zero-cost
// yield would let a spin-waiting proc monopolize the event queue at a
// single instant and livelock the simulation.
const minYieldNS = 25

func (t *simTC) Yield() {
	ns := t.layer.costs.YieldNS
	if ns < minYieldNS {
		ns = minYieldNS
	}
	t.proc.Compute(ns)
	t.proc.Yield()
}

func (t *simTC) Sleep(ns int64) { t.proc.Sleep(ns) }

// simHandle is a spawned thread: the join word and the thread's own
// context in one allocation.
type simHandle struct {
	tc   simTC
	done Word
}

func (h *simHandle) Join(tc TC) {
	c := tc.Costs()
	for h.done.Load() == 0 {
		tc.FutexWait(&h.done, 0)
	}
	tc.Charge(c.ThreadJoinNS)
}

func (t *simTC) Spawn(name string, cpu int, fn func(TC)) Handle {
	l := t.layer
	t.Charge(l.costs.ThreadSpawnNS)
	if l.SpawnHook != nil {
		l.SpawnHook(t, cpu)
	}
	h := &simHandle{tc: simTC{layer: l}}
	l.Sim.Go(name, cpu, t.proc.Now(), func(p *sim.Proc) {
		child := &h.tc
		child.proc = p
		runSpawned(l.Spine, &l.tidSeq, cpu, child, fn)
		child.Charge(l.costs.ThreadExitNS)
		h.done.Store(1)
		child.FutexWake(&h.done, -1)
	})
	return h
}

// IsThreadKill reports whether a recovered panic value is the layer
// unwinding a thread it has killed (sim.Kill: a failed CPU, a crashed
// kernel). Runtime code that contains panics from user code must
// re-raise such a value untouched; the real layer never produces one.
func IsThreadKill(r any) bool { return sim.IsKill(r) }

// futexWord adapts a Word to the simulator futex table, which keys on
// *uint32. Word's single field makes the conversion stable.
func futexKey(w *Word) *uint32 { return &w.v }

// Alarm arms a one-shot timer ns virtual nanoseconds from now: fn runs
// on a fresh unbound proc spawned at the fire time, so it may charge
// costs and issue futex wakes like any thread. Cancelled alarm events
// are discarded before the simulator's clock reaches them, so a stopped
// alarm leaves no trace on virtual time — fault-free runs with a
// deadline armed are byte-identical to runs without one.
func (t *simTC) Alarm(ns int64, fn func(TC)) (stop func()) {
	l := t.layer
	return l.Sim.AfterCancel(ns, func() {
		l.Sim.Go("alarm", -1, l.Sim.Now(), func(p *sim.Proc) {
			fn(&simTC{layer: l, proc: p})
		})
	})
}

func (t *simTC) FutexWait(w *Word, val uint32) bool {
	return t.layer.ft.Wait(t.proc, futexKey(w), val, t.layer.costs.FutexWaitEntryNS)
}

func (t *simTC) FutexWake(w *Word, n int) int {
	c := &t.layer.costs
	return t.layer.ft.Wake(t.proc, futexKey(w), n, c.FutexWakeEntryNS, c.FutexWakeLatencyNS, c.FutexWakeStaggerNS)
}
