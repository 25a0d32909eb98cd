// Package pthread implements the POSIX-threads compatibility layer that
// RTK interposes between libomp and the kernel (§3.3). Two variants exist,
// mirroring the paper's Figure 2:
//
//   - PTE: a port of the "POSIX Threads for Embedded systems" library.
//     Every primitive goes through the generic portable layering (object
//     attribute checks, OS-abstraction indirection), and the higher-level
//     objects (condition variables, barriers) are built generically from
//     the primitive ones. "Although redundancies are easy to spot, it is
//     still reasonably efficient."
//   - Custom: the revisited implementation, customized to the Nautilus
//     environment, that directly leverages the kernel's native constructs
//     (futex-generation barriers and condvars, no generic layering).
//
// Both variants are written against the exec layer, so the same code
// serves the Linux-analogue environment (where it stands in for glibc's
// NPTL) and the kernel environments.
package pthread

import (
	"strconv"
	"sync/atomic"

	"github.com/interweaving/komp/internal/exec"
)

// Impl selects the implementation variant.
type Impl int

// Implementation variants.
const (
	// NPTL is the Linux-native pthread implementation (no extra
	// layering; used for the Linux and PIK environments, which run the
	// unmodified user-level library).
	NPTL Impl = iota
	// PTE is the portable embedded port (Fig. 2a).
	PTE
	// Custom is the Nautilus-customized implementation (Fig. 2b).
	Custom
)

func (i Impl) String() string {
	switch i {
	case PTE:
		return "pte"
	case Custom:
		return "custom"
	default:
		return "nptl"
	}
}

// Lib is a pthread library instance bound to an execution layer.
type Lib struct {
	Layer exec.Layer
	Impl  Impl

	// TaxNS is the per-operation layering overhead of the portable PTE
	// path (extra call layers, generic attribute handling). Zero for
	// NPTL and Custom.
	TaxNS int64

	threadSeq atomic.Int64
}

// New creates a pthread library over a layer.
func New(layer exec.Layer, impl Impl) *Lib {
	l := &Lib{Layer: layer, Impl: impl}
	if impl == PTE {
		l.TaxNS = 35
	}
	return l
}

func (l *Lib) tax(tc exec.TC) {
	if l.TaxNS > 0 {
		tc.Charge(l.TaxNS)
	}
}

// --- Threads ---

// Thread is a pthread thread handle.
type Thread struct {
	ID     int64
	handle exec.Handle
}

// Attr carries the thread attributes libomp sets.
type Attr struct {
	// CPU pins the thread (pthread_attr_setaffinity_np); -1 lets the
	// library place it round-robin.
	CPU int
	// StackSize is recorded (and charged as an allocation) but the
	// simulated threads do not consume real stack.
	StackSize int64
}

// Create starts a new thread running fn (pthread_create).
func (l *Lib) Create(tc exec.TC, attr Attr, fn func(exec.TC)) *Thread {
	l.tax(tc)
	if attr.StackSize > 0 {
		tc.Charge(tc.Costs().MallocNS)
	}
	cpu := attr.CPU
	if cpu < 0 {
		cpu = int(l.threadSeq.Load()) % l.Layer.NumCPUs()
	}
	id := l.threadSeq.Add(1)
	h := tc.Spawn("pthread-"+strconv.FormatInt(id, 10), cpu, fn)
	return &Thread{ID: id, handle: h}
}

// Join waits for the thread to exit (pthread_join).
func (l *Lib) Join(tc exec.TC, t *Thread) {
	l.tax(tc)
	t.handle.Join(tc)
}

// --- Mutex ---

// Mutex is a futex-based mutex (states: 0 unlocked, 1 locked, 2 locked
// with waiters), the classic NPTL design.
type Mutex struct {
	lib   *Lib
	state exec.Word
}

// NewMutex creates a mutex.
func (l *Lib) NewMutex() *Mutex { return &Mutex{lib: l} }

// Lock acquires the mutex.
func (m *Mutex) Lock(tc exec.TC) {
	c := tc.Costs()
	m.lib.tax(tc)
	tc.Charge(c.AtomicRMWNS)
	if m.state.CompareAndSwap(0, 1) {
		return
	}
	for {
		// Mark contended and sleep.
		tc.Charge(c.AtomicRMWNS + c.CacheLineXferNS)
		if m.state.Load() == 2 || m.state.CompareAndSwap(1, 2) {
			tc.FutexWait(&m.state, 2)
		}
		tc.Charge(c.AtomicRMWNS)
		if m.state.CompareAndSwap(0, 2) {
			return
		}
	}
}

// TryLock attempts to acquire the mutex without blocking.
func (m *Mutex) TryLock(tc exec.TC) bool {
	m.lib.tax(tc)
	tc.Charge(tc.Costs().AtomicRMWNS)
	return m.state.CompareAndSwap(0, 1)
}

// Unlock releases the mutex.
func (m *Mutex) Unlock(tc exec.TC) {
	c := tc.Costs()
	m.lib.tax(tc)
	tc.Charge(c.AtomicRMWNS)
	if m.state.CompareAndSwap(1, 0) {
		return // no waiters
	}
	m.state.Store(0)
	tc.FutexWake(&m.state, 1)
}

// --- Condition variables ---

// Cond is a condition variable. The PTE variant is built generically on a
// waiter-count + futex sequence; the Custom variant maps directly to the
// kernel wait queue (modeled as the same mechanism minus the layering
// tax, plus a cheaper broadcast path).
type Cond struct {
	lib *Lib
	seq exec.Word
}

// NewCond creates a condition variable.
func (l *Lib) NewCond() *Cond { return &Cond{lib: l} }

// Wait atomically releases m and blocks until signaled, then reacquires m.
func (cv *Cond) Wait(tc exec.TC, m *Mutex) {
	cv.lib.tax(tc)
	seq := cv.seq.Load()
	m.Unlock(tc)
	tc.FutexWait(&cv.seq, seq)
	m.Lock(tc)
}

// Broadcast wakes all waiters.
func (cv *Cond) Broadcast(tc exec.TC) {
	cv.lib.tax(tc)
	tc.Charge(tc.Costs().AtomicRMWNS)
	cv.seq.Add(1)
	tc.FutexWake(&cv.seq, -1)
}
