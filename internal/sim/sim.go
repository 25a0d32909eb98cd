// Package sim implements a deterministic discrete-event simulator with
// cooperative simulated threads ("procs"), per-CPU timelines, wait queues,
// and a seeded random source.
//
// The simulator is the substrate for every simulated kernel environment in
// this repository (the Nautilus-analogue and the Linux-analogue). It runs
// exactly one proc at a time, so all state touched from proc code is
// race-free and every run with the same seed is bit-identical.
//
// Each proc is a coroutine (coro.go): the event loop, on the goroutine
// that called Run, switches straight into the proc whose event fired, and
// a proc that blocks switches straight back. The Go scheduler is not
// involved and no second OS thread is needed.
//
// Time is virtual and measured in nanoseconds (the Time alias). A proc
// advances time only through explicit operations: Compute (occupies its
// CPU), Sleep (does not occupy a CPU), Park/Unpark, and wait queues.
//
// The event queue is a timer-wheel/spill hybrid by default (see
// queue.go); NewEQ selects the binary-heap
// baseline for differential testing. Both orders events identically by
// (timestamp, seq), so every trace is byte-identical across algorithms.
// Event nodes are allocated 64 at a time and recycled through a per-Sim
// free list, keeping the schedule/fire hot path allocation-free.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Time is virtual time in nanoseconds.
type Time = int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// NoiseModel extends compute segments with environment-dependent
// interference (OS noise, interrupts, competing activity). Extend returns
// the completion time of a compute burst of duration d that starts at
// time start on the given CPU. Implementations must be deterministic
// given the simulator's seeded RNG.
type NoiseModel interface {
	Extend(rng *rand.Rand, cpu int, start, d Time) Time
}

// NoNoise is the zero-interference noise model.
type NoNoise struct{}

// Extend returns start + d unchanged.
func (NoNoise) Extend(_ *rand.Rand, _ int, start, d Time) Time { return start + d }

// CPU is a simulated hardware thread with its own timeline.
type CPU struct {
	ID     int
	FreeAt Time // time at which the current compute segment ends
	Noise  NoiseModel

	// Accounting.
	BusyNS   Time // virtual ns spent computing (including noise stretch)
	Segments int64
}

// ProcState describes what a proc is currently doing.
type ProcState int

// Proc states.
const (
	StateRunnable ProcState = iota
	StateRunning
	StateBlocked
	StateDone
)

func (s ProcState) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// Proc is a simulated thread of execution: a coroutine the event loop
// switches into when the proc's event fires and that switches back when
// the proc blocks or ends.
type Proc struct {
	ID   int
	Name string

	sim   *Sim
	cpu   int // bound CPU, or -1
	state ProcState
	now   Time // proc-local clock: the virtual time it has reached

	co  *coro // the coroutine running this proc's body (nil once done)
	idx int   // position in sim.procs, for O(1) removal

	// Diagnostics: what the proc is blocked on and since when (valid
	// while state == StateBlocked).
	waitReason   string
	blockedSince Time
	// hasEvent marks a proc with a pending wake-up event in the queue
	// (sleepers and scheduled resumes), distinguishing it from a proc
	// blocked with no way forward.
	hasEvent bool
	// killed marks a proc condemned by Kill; it exits at its next
	// scheduling point instead of resuming.
	killed bool
	// wq is the wait queue the proc is currently parked on, if any, so
	// Kill can extract it.
	wq *WaitQueue

	// Data is an arbitrary per-proc slot for the layers above (e.g. the
	// kernel thread object wrapping this proc).
	Data any
}

// CPUID returns the CPU the proc is bound to, or -1 if unbound.
func (p *Proc) CPUID() int { return p.cpu }

// SetCPU rebinds the proc to a CPU (or -1 to unbind). The binding takes
// effect at the proc's next compute segment.
func (p *Proc) SetCPU(cpu int) {
	if cpu >= len(p.sim.cpus) {
		panic(fmt.Sprintf("sim: SetCPU(%d) beyond %d CPUs", cpu, len(p.sim.cpus)))
	}
	p.cpu = cpu
}

// State reports the proc's current state.
func (p *Proc) State() ProcState { return p.state }

// Now returns the proc's local virtual time.
func (p *Proc) Now() Time { return p.now }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Sim { return p.sim }

// Sim is a deterministic discrete-event simulator.
type Sim struct {
	now    Time
	eq     eventQueue
	free   *eventNode // recycled event nodes (alloc-free hot path)
	seq    uint64
	fired  int64 // events popped and acted on (cancelled pops excluded)
	rng    *rand.Rand
	cpus   []CPU
	nextID int

	running *Proc
	live    int     // procs not yet done
	procs   []*Proc // all live procs (p.idx is its position), for diagnostics and Kill

	// watchdogNS is the per-proc progress deadline (0: disabled): a proc
	// blocked with no pending event for longer than this aborts Run with
	// a StallError carrying a full diagnostic dump.
	watchdogNS Time
	wdNext     Time
	// noEvent counts procs blocked with no pending wake-up event — the
	// only procs a watchdog or deadlock report can name. The check scans
	// the blocked set only when this is non-zero (the queue-quiescence
	// fast path) and the conservative earliest block time is old enough
	// to possibly have breached the deadline.
	noEvent int
	// wdEarliest is a lower bound on the earliest blockedSince among
	// no-event blocked procs (never raised on unblock, so it may go
	// stale-low; a full scan refreshes it). Stale-low only costs an
	// unnecessary scan, never a missed stall.
	wdEarliest Time
	// wdScratch is the pooled diagnostic buffer for watchdog scans.
	wdScratch []ProcStall
}

// New creates a simulator with ncpu CPUs and the given RNG seed on the
// timer-wheel event queue.
func New(ncpu int, seed int64) *Sim { return NewEQ(ncpu, seed, EQWheel) }

// NewEQ creates a simulator with an explicit event-queue algorithm. Both
// algorithms fire events in the exact same order. Production code calls
// New; EQHeap is the reference the differential tests hold the wheel to.
func NewEQ(ncpu int, seed int64, algo EQAlgo) *Sim {
	if ncpu < 1 {
		panic("sim: need at least one CPU")
	}
	s := &Sim{
		rng:        rand.New(rand.NewSource(seed)),
		cpus:       make([]CPU, ncpu),
		wdEarliest: math.MaxInt64,
	}
	if algo == EQHeap {
		s.eq = &heapQueue{}
	} else {
		s.eq = newWheelQueue()
	}
	for i := range s.cpus {
		s.cpus[i] = CPU{ID: i, Noise: NoNoise{}}
	}
	return s
}

// EventsFired returns the number of events processed so far (cancelled
// events, which are discarded without advancing the clock, do not
// count).
func (s *Sim) EventsFired() int64 { return s.fired }

// EventsSpilled returns how many events took the far-future spill path
// instead of a wheel bucket (always 0 on the heap baseline). Like every
// queue property, it is a pure function of the seed.
func (s *Sim) EventsSpilled() int64 {
	if w, ok := s.eq.(*wheelQueue); ok {
		return w.spilled
	}
	return 0
}

// nodeSlab is how many event nodes one allocation provides.
const nodeSlab = 64

// newNode takes an event node from the free list (refilled a slab at a
// time), stamping it with the next seq.
func (s *Sim) newNode(at Time, p *Proc, fn func()) *eventNode {
	if s.free == nil {
		slab := make([]eventNode, nodeSlab)
		for i := range slab[:nodeSlab-1] {
			slab[i].next = &slab[i+1]
		}
		s.free = &slab[0]
	}
	n := s.free
	s.free = n.next
	n.next = nil
	s.seq++
	n.at, n.seq, n.proc, n.fn, n.cancelled = at, s.seq, p, fn, false
	return n
}

// freeNode recycles a node. The generation bump invalidates any
// outstanding cancel handle, so a stale cancel after the event fired
// (or after the node was reused) is a safe no-op.
func (s *Sim) freeNode(n *eventNode) {
	n.gen++
	n.proc, n.fn = nil, nil
	n.next = s.free
	s.free = n
}

// Now returns the current global virtual time.
func (s *Sim) Now() Time { return s.now }

// RNG returns the simulator's seeded random source. It must only be used
// from proc code or scheduler callbacks (never concurrently).
func (s *Sim) RNG() *rand.Rand { return s.rng }

// NumCPU returns the number of simulated CPUs.
func (s *Sim) NumCPU() int { return len(s.cpus) }

// CPU returns the CPU with the given id.
func (s *Sim) CPU(id int) *CPU { return &s.cpus[id] }

// SetNoise installs a noise model on every CPU.
func (s *Sim) SetNoise(n NoiseModel) {
	for i := range s.cpus {
		s.cpus[i].Noise = n
	}
}

func (s *Sim) schedule(at Time, p *Proc, fn func()) {
	if at < s.now {
		at = s.now
	}
	if p != nil {
		p.hasEvent = true
	}
	s.eq.push(s.newNode(at, p, fn))
}

// At schedules fn to run on the scheduler at virtual time at (clamped to
// now). Use it for interrupts, timers, and other asynchronous machinery.
func (s *Sim) At(at Time, fn func()) { s.schedule(at, nil, fn) }

// After schedules fn to run d nanoseconds from now.
func (s *Sim) After(d Time, fn func()) { s.schedule(s.now+d, nil, fn) }

// AfterCancel schedules fn like After and returns a cancel function. A
// cancelled event is discarded on pop without advancing the clock, so an
// armed-but-unneeded timer (e.g. a futex recheck) leaves no trace on
// fault-free timings. Cancellation is lazy (the node stays queued until
// its timestamp) and generation-counted: calling cancel after the event
// fired — even after its node was recycled into a new event — is a
// no-op.
func (s *Sim) AfterCancel(d Time, fn func()) (cancel func()) {
	at := s.now + d
	if at < s.now {
		at = s.now
	}
	n := s.newNode(at, nil, fn)
	s.eq.push(n)
	return s.cancelFunc(n)
}

// cancelFunc returns the lazy-deletion cancel handle for a queued node.
// The captured generation makes a stale handle inert; a live cancel of a
// proc-carrying event also clears the proc's hasEvent flag (and folds it
// into the watchdog's no-event accounting), so the proc is correctly
// reported as having no way forward instead of carrying a stale flag.
func (s *Sim) cancelFunc(n *eventNode) func() {
	gen := n.gen
	return func() {
		if n.gen != gen || n.cancelled {
			return
		}
		n.cancelled = true
		n.fn = nil
		if p := n.proc; p != nil {
			n.proc = nil
			p.hasEvent = false
			if p.state == StateBlocked {
				s.countBlockedNoEvent(p)
			}
		}
	}
}

// countBlockedNoEvent folds a proc that is blocked with no pending event
// into the watchdog fast-path accounting.
func (s *Sim) countBlockedNoEvent(p *Proc) {
	s.noEvent++
	if p.blockedSince < s.wdEarliest {
		s.wdEarliest = p.blockedSince
	}
}

// Go creates a proc bound to the given CPU (-1 for unbound) that starts at
// virtual time max(now, start) and runs fn. It may be called from the
// scheduler (before Run) or from proc code.
//
// fn runs on a coroutine of the goroutine that drives the simulator, so
// a panic in fn — and a runtime.Goexit, which is what t.Fatal and
// t.FailNow do — unwinds fn's own defers and then surfaces from Run (or
// RunUntil) on the caller's goroutine, with the proc already accounted
// as done.
func (s *Sim) Go(name string, cpu int, start Time, fn func(p *Proc)) *Proc {
	if cpu >= len(s.cpus) {
		panic(fmt.Sprintf("sim: Go on CPU %d beyond %d CPUs", cpu, len(s.cpus)))
	}
	s.nextID++
	p := &Proc{ID: s.nextID, Name: name, sim: s, cpu: cpu, state: StateRunnable, idx: len(s.procs)}
	p.co = getCoro(p, fn)
	s.live++
	s.procs = append(s.procs, p)
	if start < s.now {
		start = s.now
	}
	s.schedule(start, p, nil)
	return p
}

// finish accounts a proc whose body has ended, however it ended. It runs
// on the proc's coroutine before control returns to dispatch.
func (s *Sim) finish(p *Proc) {
	p.state = StateDone
	s.live--
	last := s.procs[len(s.procs)-1]
	s.procs[p.idx], last.idx = last, p.idx
	s.procs[len(s.procs)-1] = nil
	s.procs = s.procs[:len(s.procs)-1]
}

// dispatch switches into proc p and returns when it blocks or ends.
func (s *Sim) dispatch(p *Proc) {
	if p.state == StateDone {
		return
	}
	p.state = StateRunning
	p.waitReason = ""
	if p.now < s.now {
		p.now = s.now
	}
	prev := s.running
	s.running = p
	p.co.next() // a panic or Goexit in proc code leaves from here
	s.running = prev
	if p.state == StateDone {
		putCoro(p.co)
		p.co = nil
	}
}

// Run processes events until none remain. It returns an error if live
// procs remain blocked with an empty event queue (deadlock), or — when a
// watchdog is set — if a proc misses its progress deadline (stall).
//
// A panic or runtime.Goexit in proc code leaves Run on the caller's
// goroutine (see Go); the simulator stays consistent, and a recovered
// caller may call Run again to drive the remaining procs.
func (s *Sim) Run() error {
	for {
		n := s.eq.pop()
		if n == nil {
			break
		}
		if n.cancelled {
			s.freeNode(n)
			continue
		}
		s.now = n.at
		s.fired++
		if s.watchdogNS > 0 && s.now >= s.wdNext {
			if err := s.watchdogCheck(); err != nil {
				s.freeNode(n)
				return err
			}
		}
		fn, p := n.fn, n.proc
		s.freeNode(n)
		if fn != nil {
			fn()
			continue
		}
		if p != nil {
			p.hasEvent = false
			s.dispatch(p)
		}
	}
	if s.live > 0 {
		return s.deadlockError()
	}
	return nil
}

// RunUntil processes events with time ≤ t, then returns. The clock is
// advanced to t.
func (s *Sim) RunUntil(t Time) {
	for {
		at, ok := s.eq.peekTime()
		if !ok || at > t {
			break
		}
		n := s.eq.pop()
		if n.cancelled {
			s.freeNode(n)
			continue
		}
		s.now = n.at
		s.fired++
		fn, p := n.fn, n.proc
		s.freeNode(n)
		if fn != nil {
			fn()
			continue
		}
		if p != nil {
			p.hasEvent = false
			s.dispatch(p)
		}
	}
	if s.now < t {
		s.now = t
	}
}

// SetWatchdog arms a per-proc progress deadline: if any proc stays
// blocked (with no pending wake-up event) for longer than limit of
// virtual time while the simulation is otherwise advancing, Run aborts
// with a StallError naming every stalled proc, its wait reason, and how
// long it has been stuck. Zero disables the watchdog.
func (s *Sim) SetWatchdog(limit Time) {
	s.watchdogNS = limit
	s.wdNext = s.now + limit
}

func (s *Sim) watchdogCheck() error {
	// Re-check one quarter-deadline later: granular enough to catch a
	// stall promptly, coarse enough to stay off the hot path.
	step := s.watchdogNS / 4
	if step < 1 {
		step = 1
	}
	// Fast path: scan the blocked set only when some proc is truly
	// quiescent (blocked with no pending event) AND the conservative
	// earliest block time is old enough that the deadline could have
	// been breached. Runs with every proc reachable from the queue —
	// the common case — never pay the O(nprocs) sweep.
	if s.noEvent == 0 || s.now-s.wdEarliest <= s.watchdogNS {
		s.wdNext = s.now + step
		return nil
	}
	s.wdScratch = s.wdScratch[:0]
	earliest := Time(math.MaxInt64)
	for _, p := range s.procs {
		if p.hasEvent || p.state != StateBlocked {
			continue
		}
		if p.blockedSince < earliest {
			earliest = p.blockedSince
		}
		if s.now-p.blockedSince > s.watchdogNS {
			s.wdScratch = append(s.wdScratch, p.stall(s.now))
		}
	}
	s.wdEarliest = earliest
	if len(s.wdScratch) > 0 {
		stalled := make([]ProcStall, len(s.wdScratch))
		copy(stalled, s.wdScratch)
		sortStalls(stalled)
		return &StallError{Kind: "watchdog", Now: s.now, Limit: s.watchdogNS, Stalled: stalled}
	}
	s.wdNext = s.now + step
	return nil
}

// ProcStall describes one blocked proc in a stall or deadlock report.
type ProcStall struct {
	Name   string
	ID     int
	CPU    int
	Reason string // what it is blocked on
	Since  Time   // virtual time at which it blocked
	Waited Time   // how long it has been blocked
}

func (p *Proc) stall(now Time) ProcStall {
	reason := p.waitReason
	if reason == "" {
		reason = "unknown"
	}
	return ProcStall{Name: p.Name, ID: p.ID, CPU: p.cpu, Reason: reason,
		Since: p.blockedSince, Waited: now - p.blockedSince}
}

func sortStalls(st []ProcStall) {
	sort.Slice(st, func(i, j int) bool { return st[i].ID < st[j].ID })
}

// StallError reports procs blocked forever (deadlock) or beyond the
// watchdog deadline (stall), with a per-proc diagnostic dump.
type StallError struct {
	Kind    string // "deadlock" or "watchdog"
	Now     Time
	Limit   Time // watchdog deadline (0 for deadlock)
	Stalled []ProcStall
}

func (e *StallError) Error() string {
	var b strings.Builder
	if e.Kind == "watchdog" {
		fmt.Fprintf(&b, "sim: watchdog: %d proc(s) exceeded the %dns progress deadline at t=%dns:",
			len(e.Stalled), e.Limit, e.Now)
	} else {
		fmt.Fprintf(&b, "sim: deadlock: %d proc(s) blocked forever at t=%dns:", len(e.Stalled), e.Now)
	}
	for _, st := range e.Stalled {
		fmt.Fprintf(&b, "\n  %s(#%d) cpu=%d blocked on %s since t=%dns (%dns ago)",
			st.Name, st.ID, st.CPU, st.Reason, st.Since, st.Waited)
	}
	return b.String()
}

func (s *Sim) deadlockError() error {
	var stalled []ProcStall
	for _, p := range s.procs {
		if p.state == StateBlocked {
			stalled = append(stalled, p.stall(s.now))
		}
	}
	sortStalls(stalled)
	return &StallError{Kind: "deadlock", Now: s.now, Stalled: stalled}
}

// Procs returns the live (not yet done) procs, sorted by ID. It is meant
// for diagnostics and fault injection (picking the procs to Kill).
func (s *Sim) Procs() []*Proc {
	out := append([]*Proc(nil), s.procs...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Kill condemns a proc: instead of resuming at its next scheduling
// point, it exits. A blocked proc is extracted from its wait queue and
// scheduled to die now; a runnable proc dies at dispatch. Kill models
// hard faults (a failed CPU, a crashed kernel) — the victim
// gets no chance to clean up, exactly like real hardware.
func (s *Sim) Kill(p *Proc) {
	if p == nil || p.state == StateDone || p.killed {
		return
	}
	p.killed = true
	if p.state == StateBlocked && !p.hasEvent {
		if p.wq != nil {
			p.wq.Remove(p)
		}
		s.Unpark(p, s.now)
	}
}

// --- Proc operations (must be called from the proc's own code) ---

func (p *Proc) mustBeRunning() {
	if p.sim.running != p {
		panic(fmt.Sprintf("sim: proc %s(#%d) operated on while not running", p.Name, p.ID))
	}
}

// block switches back to the event loop until it dispatches the proc
// again, recording what the proc is waiting on for stall/deadlock
// diagnostics. A proc condemned by Kill unwinds from here instead of
// resuming: deferred calls in proc code run, and the coroutine root
// (coro.run) recovers the signal and completes the bookkeeping.
func (p *Proc) block(reason string) {
	p.state = StateBlocked
	p.waitReason = reason
	p.blockedSince = p.now
	if !p.hasEvent {
		p.sim.countBlockedNoEvent(p)
	}
	p.co.yield(struct{}{})
	if p.killed {
		panic(killSignal{})
	}
}

// Compute advances the proc by d nanoseconds of work on its bound CPU,
// respecting CPU contention (non-preemptive FIFO) and the CPU's noise
// model. Unbound procs advance without contention or noise.
func (p *Proc) Compute(d Time) {
	p.mustBeRunning()
	if d < 0 {
		panic("sim: negative compute duration")
	}
	s := p.sim
	if p.cpu < 0 {
		p.sleepUntil(p.now + d)
		return
	}
	c := &s.cpus[p.cpu]
	start := p.now
	if c.FreeAt > start {
		start = c.FreeAt
	}
	end := c.Noise.Extend(s.rng, c.ID, start, d)
	if end < start+d {
		panic("sim: noise model shortened compute")
	}
	c.FreeAt = end
	c.BusyNS += end - start
	c.Segments++
	p.sleepUntil(end)
}

// Sleep advances the proc by d nanoseconds without occupying its CPU.
func (p *Proc) Sleep(d Time) {
	p.mustBeRunning()
	if d < 0 {
		panic("sim: negative sleep duration")
	}
	p.sleepUntil(p.now + d)
}

func (p *Proc) sleepUntil(t Time) {
	if t <= p.now && t <= p.sim.now {
		// Zero-length: still yield through the queue so same-time events
		// interleave fairly and deterministically.
		t = p.sim.now
	}
	p.sim.schedule(t, p, nil)
	p.block("sleep")
}

// Yield reschedules the proc at the current time, letting same-time events
// run first.
func (p *Proc) Yield() {
	p.mustBeRunning()
	p.sleepUntil(p.now)
}

// Park blocks the proc until another proc (or a scheduler callback) calls
// Unpark on it.
func (p *Proc) Park() {
	p.mustBeRunning()
	p.block("park")
}

// Unpark makes a parked proc runnable at virtual time at (clamped to now).
// It may be called from any proc or scheduler callback, but not for a proc
// that is runnable or running.
func (s *Sim) Unpark(p *Proc, at Time) {
	if p.state != StateBlocked {
		panic(fmt.Sprintf("sim: Unpark of %s proc %s(#%d)", p.state, p.Name, p.ID))
	}
	if at < s.now {
		at = s.now
	}
	if !p.hasEvent {
		// The proc leaves the quiescent-blocked set (wdEarliest may go
		// stale-low; the next full scan refreshes it).
		s.noEvent--
	}
	p.state = StateRunnable
	s.schedule(at, p, nil)
}

// Utilization summarizes CPU busy fractions over the elapsed time.
type Utilization struct {
	ElapsedNS Time
	// BusyFrac[c] is CPU c's busy fraction of the elapsed time.
	BusyFrac []float64
	// Mean is the average busy fraction.
	Mean float64
}

// Utilization reports per-CPU busy fractions since time 0.
func (s *Sim) Utilization() Utilization {
	u := Utilization{ElapsedNS: s.now, BusyFrac: make([]float64, len(s.cpus))}
	if s.now == 0 {
		return u
	}
	var sum float64
	for i := range s.cpus {
		u.BusyFrac[i] = float64(s.cpus[i].BusyNS) / float64(s.now)
		sum += u.BusyFrac[i]
	}
	u.Mean = sum / float64(len(s.cpus))
	return u
}

// --- Wait queues ---

// WaitQueue is a FIFO queue of blocked procs.
type WaitQueue struct {
	sim    *Sim
	reason string // "waitqueue <label>", precomputed so Wait never allocates
	procs  []*Proc
	// buf is the initial backing of procs: most queues (a futex word, a
	// join handle) never hold more than a few waiters at once, so the
	// queue and its waiter list are one allocation.
	buf [4]*Proc
}

// NewWaitQueue creates a wait queue on s.
func NewWaitQueue(s *Sim) *WaitQueue {
	q := &WaitQueue{}
	q.init(s, "")
	return q
}

func (q *WaitQueue) init(s *Sim, reason string) {
	q.sim, q.reason, q.procs = s, reason, q.buf[:0]
}

// SetLabel names the queue for stall/deadlock diagnostics: procs blocked
// on it report "waitqueue <label>" as their wait reason.
func (q *WaitQueue) SetLabel(label string) *WaitQueue {
	q.reason = "waitqueue " + label
	return q
}

// Len returns the number of waiting procs.
func (q *WaitQueue) Len() int { return len(q.procs) }

// Wait blocks the calling proc on the queue.
func (q *WaitQueue) Wait(p *Proc) {
	p.mustBeRunning()
	q.procs = append(q.procs, p)
	p.wq = q
	reason := q.reason
	if reason == "" {
		reason = "waitqueue"
	}
	p.block(reason)
}

// WakeOne wakes the oldest waiter at time at, with an extra delay latency
// added to model the wake path cost on the waiter's side. It returns the
// woken proc, or nil if the queue was empty.
func (q *WaitQueue) WakeOne(at, latency Time) *Proc {
	if len(q.procs) == 0 {
		return nil
	}
	p := q.procs[0]
	copy(q.procs, q.procs[1:])
	q.procs[len(q.procs)-1] = nil
	q.procs = q.procs[:len(q.procs)-1]
	p.wq = nil
	q.sim.Unpark(p, at+latency)
	return p
}

// WakeAll wakes every waiter. Each waiter i resumes at at+latency+i*stagger,
// modeling serialized wake-up paths. It returns the number woken.
func (q *WaitQueue) WakeAll(at, latency, stagger Time) int {
	n := len(q.procs)
	for i, p := range q.procs {
		p.wq = nil
		q.sim.Unpark(p, at+latency+Time(i)*stagger)
		q.procs[i] = nil
	}
	q.procs = q.procs[:0]
	return n
}

// Remove removes a specific proc from the queue without waking it. It
// reports whether the proc was present.
func (q *WaitQueue) Remove(p *Proc) bool {
	for i, w := range q.procs {
		if w == p {
			q.procs = append(q.procs[:i], q.procs[i+1:]...)
			p.wq = nil
			return true
		}
	}
	return false
}
