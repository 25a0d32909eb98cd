// Package virgil implements VIRGIL, the custom task-based run-time system
// that CCK-compiled code targets instead of libomp (§5). VIRGIL is
// deliberately tiny: it only runs tasks that are already independent and
// ready — "the compiler generates code such that all tasks that are
// handed to the runtime are immediately ready". Group joins are not the
// runtime's business; the compiler emits landing-task counters in the
// generated code.
//
// Two versions exist, as in the paper:
//
//   - User: builds on threads and futex-style blocking (the C++17/futex
//     version that runs on Linux, 620 LoC in the paper).
//   - Kernel: a thin veneer over the Nautilus task system, which operates
//     like Linux's SoftIRQ mechanism (550 LoC in the paper).
package virgil

import (
	"sync/atomic"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/nautilus"
	"github.com/interweaving/komp/internal/ompt"
)

// Runtime is the minimal interface CCK-generated code needs.
type Runtime interface {
	// Start brings up the worker fleet; tc is a running thread context.
	Start(tc exec.TC)
	// SubmitBatch hands a whole group of ready tasks to the runtime in
	// one operation — what CCK's generated code does at the head of a
	// parallel region, so the submitting thread does not interleave
	// with already-running tasks.
	SubmitBatch(tc exec.TC, fns []func(exec.TC))
	// Stop drains outstanding tasks and shuts the workers down.
	Stop(tc exec.TC)
}

// --- User-level VIRGIL ---

// utask is one queued task: the body plus its spine task id.
type utask struct {
	fn func(exec.TC)
	id uint64
}

// User is the user-level VIRGIL: n worker threads sharing one queue,
// blocking on a futex word when idle. The queue is a head-index ring:
// pop advances head instead of shifting the slice (the shift made a
// full drain O(n²)), and the enqueue path reclaims the popped prefix
// before it would grow the backing array.
type User struct {
	n       int
	queue   []utask
	head    int           // queue[head:] is live; the prefix is popped
	qlock   chan struct{} // 1-token structural lock (layer-agnostic)
	pending exec.Word
	stop    exec.Word
	workers []exec.Handle

	spine   *ompt.Spine
	taskSeq atomic.Uint64

	// Executed counts completed tasks.
	Executed atomic.Int64
}

// SetSpine attaches an instrumentation spine: Submit emits TaskCreate
// and the workers emit TaskSchedule/TaskComplete around every body.
// Must be called before Start.
func (u *User) SetSpine(sp *ompt.Spine) { u.spine = sp }

// NewUser creates a user-level VIRGIL with n workers.
func NewUser(n int) *User {
	u := &User{n: n, qlock: make(chan struct{}, 1)}
	u.qlock <- struct{}{}
	return u
}

// Start spawns the worker threads, bound round-robin to CPUs.
func (u *User) Start(tc exec.TC) {
	ncpu := tc.NumCPUs()
	for i := 0; i < u.n; i++ {
		worker := i
		h := tc.Spawn("virgil-user", i%ncpu, func(wtc exec.TC) {
			u.workerLoop(wtc, worker)
		})
		u.workers = append(u.workers, h)
	}
}

// newTask stamps a body with a task id and emits TaskCreate.
func (u *User) newTask(tc exec.TC, fn func(exec.TC)) utask {
	t := utask{fn: fn, id: u.taskSeq.Add(1)}
	if sp := u.spine; sp.Enabled(ompt.TaskCreate) {
		sp.Emit(ompt.Event{Kind: ompt.TaskCreate, Thread: int32(tc.CPU()),
			CPU: int32(tc.CPU()), TimeNS: tc.Now(), Obj: t.id})
	}
	return t
}

// enqueue appends tasks at the ring's tail; the caller holds qlock.
// When the append would grow the backing array while popped slots sit
// before head, the live region is slid down first — so the ring reuses
// its storage instead of leaking the drained prefix (Submit and
// SubmitBatch share this path).
func (u *User) enqueue(tasks ...utask) {
	if u.head > 0 && len(u.queue)+len(tasks) > cap(u.queue) {
		n := copy(u.queue, u.queue[u.head:])
		for i := n; i < len(u.queue); i++ {
			u.queue[i] = utask{}
		}
		u.queue = u.queue[:n]
		u.head = 0
	}
	u.queue = append(u.queue, tasks...)
}

// SubmitBatch enqueues a group of ready tasks with a single charge and
// wakes enough workers to start draining it.
func (u *User) SubmitBatch(tc exec.TC, fns []func(exec.TC)) {
	if len(fns) == 0 {
		return
	}
	c := tc.Costs()
	tc.Charge(int64(len(fns)) * (c.MallocNS/2 + c.AtomicRMWNS))
	tasks := make([]utask, len(fns))
	for i, fn := range fns {
		tasks[i] = u.newTask(tc, fn)
	}
	<-u.qlock
	u.enqueue(tasks...)
	u.qlock <- struct{}{}
	u.pending.Add(uint32(len(fns)))
	n := len(fns)
	if n > u.n {
		n = u.n
	}
	tc.FutexWake(&u.pending, n)
}

// pop takes the task at head, advancing the index — O(1), where the old
// copy-down shift made each pop O(n) and a full drain O(n²). A fully
// drained ring resets to its base so head never outruns the storage.
func (u *User) pop() (utask, bool) {
	<-u.qlock
	defer func() { u.qlock <- struct{}{} }()
	if u.head == len(u.queue) {
		return utask{}, false
	}
	t := u.queue[u.head]
	u.queue[u.head] = utask{}
	u.head++
	if u.head == len(u.queue) {
		u.queue = u.queue[:0]
		u.head = 0
	}
	u.pending.Add(^uint32(0))
	return t, true
}

// stopBit is folded into the pending word so that a Stop between a
// worker's emptiness check and its futex wait changes the word value and
// defeats the lost-wakeup race.
const stopBit = uint32(1) << 31

func (u *User) workerLoop(tc exec.TC, worker int) {
	c := tc.Costs()
	sp := u.spine
	for {
		if t, ok := u.pop(); ok {
			tc.Charge(c.AtomicRMWNS)
			if sp.Enabled(ompt.TaskSchedule) {
				sp.Emit(ompt.Event{Kind: ompt.TaskSchedule, Thread: int32(worker),
					CPU: int32(tc.CPU()), TimeNS: tc.Now(), Obj: t.id})
			}
			t.fn(tc)
			if sp.Enabled(ompt.TaskComplete) {
				sp.Emit(ompt.Event{Kind: ompt.TaskComplete, Thread: int32(worker),
					CPU: int32(tc.CPU()), TimeNS: tc.Now(), Obj: t.id})
			}
			u.Executed.Add(1)
			continue
		}
		v := u.pending.Load()
		if v&^stopBit != 0 {
			continue // a task arrived between pop and the check
		}
		if v&stopBit != 0 {
			return
		}
		tc.FutexWait(&u.pending, v)
	}
}

// Stop shuts the workers down after the queue drains.
func (u *User) Stop(tc exec.TC) {
	u.stop.Store(1)
	u.pending.Add(stopBit)
	tc.FutexWake(&u.pending, -1)
	for _, h := range u.workers {
		h.Join(tc)
	}
	u.workers = nil
}

// --- Kernel-level VIRGIL ---

// Kernel is the kernel-level VIRGIL: a thin veneer over the Nautilus task
// system.
type Kernel struct {
	k    *nautilus.Kernel
	cpus []int

	spine   *ompt.Spine
	taskSeq atomic.Uint64
}

// NewKernel creates a kernel-level VIRGIL running on the given CPUs of a
// booted kernel.
func NewKernel(k *nautilus.Kernel, cpus []int) *Kernel {
	return &Kernel{k: k, cpus: cpus}
}

// SetSpine attaches an instrumentation spine: submissions emit
// TaskCreate, and every body is wrapped to emit TaskSchedule and
// TaskComplete on the executing CPU. Must be called before Start.
func (v *Kernel) SetSpine(sp *ompt.Spine) { v.spine = sp }

// Start brings up the kernel task workers.
func (v *Kernel) Start(tc exec.TC) { v.k.Tasks.Start(tc, v.cpus) }

// newKTask builds the kernel task, emitting TaskCreate and wrapping the
// body with schedule/complete events when a spine is attached. Per-CPU
// kernel workers have no separate worker index; the bound CPU is the
// thread identity, as in the per-CPU SoftIRQ model.
func (v *Kernel) newKTask(tc exec.TC, fn func(exec.TC)) *nautilus.KTask {
	sp := v.spine
	if sp == nil {
		return &nautilus.KTask{Fn: fn}
	}
	id := v.taskSeq.Add(1)
	if sp.Enabled(ompt.TaskCreate) {
		sp.Emit(ompt.Event{Kind: ompt.TaskCreate, Thread: int32(tc.CPU()),
			CPU: int32(tc.CPU()), TimeNS: tc.Now(), Obj: id})
	}
	return &nautilus.KTask{Fn: func(wtc exec.TC) {
		if sp.Enabled(ompt.TaskSchedule) {
			sp.Emit(ompt.Event{Kind: ompt.TaskSchedule, Thread: int32(wtc.CPU()),
				CPU: int32(wtc.CPU()), TimeNS: wtc.Now(), Obj: id})
		}
		fn(wtc)
		if sp.Enabled(ompt.TaskComplete) {
			sp.Emit(ompt.Event{Kind: ompt.TaskComplete, Thread: int32(wtc.CPU()),
				CPU: int32(wtc.CPU()), TimeNS: wtc.Now(), Obj: id})
		}
	}}
}

// SubmitBatch spreads a group of ready tasks across the per-CPU queues
// with a single submission charge.
func (v *Kernel) SubmitBatch(tc exec.TC, fns []func(exec.TC)) {
	tasks := make([]*nautilus.KTask, len(fns))
	for i, fn := range fns {
		tasks[i] = v.newKTask(tc, fn)
	}
	v.k.Tasks.SubmitBatch(tc, tasks)
}

// Stop drains and shuts down the kernel task workers.
func (v *Kernel) Stop(tc exec.TC) { v.k.Tasks.Stop(tc) }

// --- The compiler-side join helper ---

// Group is the landing-task counter CCK compiles into generated code: the
// runtime itself stays unaware of joins (§5.4). Done must be called once
// per task; Wait blocks the caller until the whole group has landed.
type Group struct {
	remaining exec.Word
	waiting   exec.Word
}

// NewGroup creates a group expecting n completions.
func NewGroup(n int) *Group {
	g := &Group{}
	g.remaining.Store(uint32(n))
	return g
}

// Done records one task completion, waking the landing code when the
// group is complete.
func (g *Group) Done(tc exec.TC) {
	if g.remaining.Add(^uint32(0)) == 0 && g.waiting.Load() == 1 {
		tc.FutexWake(&g.remaining, -1)
	}
}

// Wait blocks until every task in the group has called Done.
func (g *Group) Wait(tc exec.TC) {
	g.waiting.Store(1)
	for {
		n := g.remaining.Load()
		if n == 0 {
			return
		}
		tc.FutexWait(&g.remaining, n)
	}
}
