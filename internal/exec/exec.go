// Package exec defines the execution layer abstraction that separates the
// OpenMP runtime (and the pthread and VIRGIL layers) from what lies
// beneath it — exactly the split the paper exploits: the same libomp runs
// over Linux pthreads, over the Nautilus pthread compatibility layer
// (RTK), or behind an emulated Linux ABI (PIK).
//
// Two implementations exist:
//
//   - RealLayer runs threads as goroutines with real synchronization, so
//     the runtime is a usable Go parallelism library.
//   - SimLayer (simlayer.go) runs threads as procs of the deterministic
//     discrete-event simulator, with every primitive charged from an
//     environment-specific cost table. All figures are regenerated on it.
package exec

import (
	"sync/atomic"

	"github.com/interweaving/komp/internal/ompt"
)

// Costs is the primitive cost table of an execution environment, in
// virtual nanoseconds. The tables for Linux, RTK, PIK and CCK differ and
// are defined by the environment packages; the real layer uses zero costs
// (real time is measured instead).
type Costs struct {
	// Thread management.
	ThreadSpawnNS int64 // create + first dispatch of a thread
	ThreadExitNS  int64
	ThreadJoinNS  int64 // join-side bookkeeping after the thread exits

	// Futex-style blocking (for Linux this is the syscall path; for the
	// in-kernel environments it is a direct call into the scheduler).
	FutexWaitEntryNS   int64 // trap + queue insert on the wait side
	FutexWakeEntryNS   int64 // trap + queue scan on the wake side
	FutexWakeLatencyNS int64 // wake-to-run latency for the woken thread
	FutexWakeStaggerNS int64 // serialization between multiple wakes

	// Fast-path synchronization.
	AtomicRMWNS     int64 // uncontended atomic read-modify-write
	CacheLineXferNS int64 // added per contending sharer on a hot line
	YieldNS         int64 // sched_yield-equivalent

	// Memory management (runtime-internal allocations).
	MallocNS int64

	// Misc.
	TLSAccessNS    int64 // thread-local storage access (hwtls vs emulated)
	SyscallExtraNS int64 // fixed per-syscall overhead beyond the work itself
}

// Word is a 32-bit futex word. Its methods are atomic so the same runtime
// code is correct on the real layer; on the simulator only one thread runs
// at a time and the atomicity is incidental.
type Word struct{ v uint32 }

// Load returns the current value.
func (w *Word) Load() uint32 { return atomic.LoadUint32(&w.v) }

// Store sets the value.
func (w *Word) Store(x uint32) { atomic.StoreUint32(&w.v, x) }

// Add atomically adds delta and returns the new value.
func (w *Word) Add(delta uint32) uint32 { return atomic.AddUint32(&w.v, delta) }

// CompareAndSwap performs an atomic CAS.
func (w *Word) CompareAndSwap(old, new uint32) bool {
	return atomic.CompareAndSwapUint32(&w.v, old, new)
}

// Line models a contended cache line (or any serially-owned hardware
// resource): accesses through Contend serialize on it, the way atomic
// read-modify-writes to one line serialize across cores. The zero value
// is ready to use.
type Line struct {
	freeAt int64
}

// Handle identifies a spawned thread for joining.
type Handle interface {
	// Join blocks the calling thread until the spawned thread exits.
	Join(tc TC)
}

// TC is a thread context: the capability a running thread uses to
// interact with its execution layer. A TC is only valid on the thread it
// was handed to.
type TC interface {
	// CPU returns the virtual CPU this thread is bound to.
	CPU() int
	// NumCPUs returns the CPU count of the layer.
	NumCPUs() int
	// Costs returns the environment cost table.
	Costs() *Costs
	// Charge advances this thread by ns nanoseconds of work on its CPU
	// (no-op on the real layer).
	Charge(ns int64)
	// Now returns elapsed time since Run started, in nanoseconds
	// (virtual on the simulator, wall-clock on the real layer).
	Now() int64
	// Yield gives up the CPU momentarily.
	Yield()
	// Sleep advances time without occupying the CPU.
	Sleep(ns int64)
	// Spawn starts a new thread bound to cpu. The spawn cost is charged
	// to the caller.
	Spawn(name string, cpu int, fn func(TC)) Handle
	// Contend performs a serialized access to a contended line: the
	// thread busy-waits until the line frees, then holds it for ns. On
	// the real layer contention is physical and this is a no-op.
	Contend(l *Line, ns int64)
	// FutexWait blocks if w still holds val, charging the wait-entry
	// cost. Returns true if the thread actually blocked.
	FutexWait(w *Word, val uint32) bool
	// FutexWake wakes up to n waiters (n < 0 means all), charging the
	// wake-entry cost, and returns the number woken.
	FutexWake(w *Word, n int) int
}

// Mover is implemented by thread contexts whose CPU binding can change
// after spawn. The OpenMP affinity subsystem uses it to re-place pooled
// workers per parallel region (proc_bind) without recreating threads: on
// the simulator the proc really migrates (subsequent Compute runs on the
// new virtual CPU), on the real layer the hint feeds CPU-tagged
// accounting and instrumentation. MoveCPU must only be called by the
// thread that owns the context.
type Mover interface {
	MoveCPU(cpu int)
}

// Alarmer is implemented by thread contexts that can arm a one-shot
// timer: fn runs ns nanoseconds from now on a context of its own — a
// timer proc on the simulator's virtual clock, the timer goroutine on
// the real layer's wall clock. The returned stop disarms an unfired
// alarm (on the simulator a stopped alarm leaves no trace on virtual
// time; on the real layer a concurrent firing may still be in flight,
// as with time.Timer.Stop). The OpenMP region-deadline ICV is built on
// it.
type Alarmer interface {
	Alarm(ns int64, fn func(TC)) (stop func())
}

// Layer is an execution substrate.
type Layer interface {
	// NumCPUs returns the number of CPUs.
	NumCPUs() int
	// Costs returns the environment cost table.
	Costs() *Costs
	// Run executes main as the initial thread on CPU 0 and drives the
	// layer until all threads finish. It returns the elapsed time in
	// nanoseconds.
	Run(main func(TC)) (int64, error)
}

// runSpawned runs a spawned thread's fn on child, bracketed by the
// spine's ThreadBegin/ThreadEnd when either is enabled. Both layers
// number their threads through tidSeq, in the order they start.
func runSpawned(sp *ompt.Spine, tidSeq *atomic.Int32, cpu int, child TC, fn func(TC)) {
	if !sp.Enabled(ompt.ThreadBegin) && !sp.Enabled(ompt.ThreadEnd) {
		fn(child)
		return
	}
	tid := tidSeq.Add(1) - 1
	if sp.Enabled(ompt.ThreadBegin) {
		sp.Emit(ompt.Event{Kind: ompt.ThreadBegin, Thread: tid, CPU: int32(cpu), TimeNS: child.Now(), Obj: uint64(cpu)})
	}
	fn(child)
	if sp.Enabled(ompt.ThreadEnd) {
		sp.Emit(ompt.Event{Kind: ompt.ThreadEnd, Thread: tid, CPU: int32(cpu), TimeNS: child.Now(), Obj: uint64(cpu)})
	}
}
