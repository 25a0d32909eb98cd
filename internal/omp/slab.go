package omp

import "unsafe"

// Per-worker state comes in slabs: one allocation per team (its Workers
// and their deques) and one per pool (its poolWorkers), instead of one
// object per thread. On the real layer these objects have cross-thread
// writers, so every element is padded to whole cache lines and starts on
// a line boundary: packing them must not make neighbours share a line.

// lineSize is the cache-line size the slabs pad and align to.
const lineSize = 64

// Go (≥ 1.22) puts an 8-byte header in front of a heap object that holds
// pointers and whose size is over 512 bytes and at most 32 KiB minus the
// header; such an object starts 8 bytes past a size-class boundary. Every
// size class above 512 bytes is a multiple of 64, those at or below it
// used here are too, and larger objects are page-aligned, so the header
// is the only thing that moves a slab off a line boundary.
// TestSlabLayout checks the outcome on the running toolchain.
const (
	mallocHeader        = 8
	mallocHeaderMinSize = 512
	mallocHeaderMaxSize = 32<<10 - mallocHeader
)

func hasMallocHeader(size uintptr) bool {
	return size > mallocHeaderMinSize && size <= mallocHeaderMaxSize
}

// lineShifted places v one header short of a line into its element, so
// that a slab behind a malloc header has each v on a line boundary.
type lineShifted[T any] struct {
	_ [lineSize - mallocHeader]byte
	v T
	_ [mallocHeader]byte
}

// lineSlab is n values of T from one allocation, each starting on a
// cache line. T's size must be a multiple of lineSize.
type lineSlab[T any] struct {
	plain   []T
	shifted []lineShifted[T]
}

func newLineSlab[T any](n int) lineSlab[T] {
	var s lineSlab[T]
	var z T
	size := uintptr(n) * unsafe.Sizeof(z)
	switch {
	case !hasMallocHeader(size):
		s.plain = make([]T, n)
	case hasMallocHeader(uintptr(n) * unsafe.Sizeof(lineShifted[T]{})):
		s.shifted = make([]lineShifted[T], n)
	default:
		// The shifted slab would outgrow the header range: round the
		// plain one up to a page-aligned large object instead.
		s.plain = make([]T, mallocHeaderMaxSize/unsafe.Sizeof(z)+1)[:n]
	}
	return s
}

func (s lineSlab[T]) at(i int) *T {
	if s.shifted != nil {
		return &s.shifted[i].v
	}
	return &s.plain[i]
}

// workerSlot is one team slot's state: its Worker and its Chase–Lev
// deque, each padded to whole lines (the deque's top is every thief's
// CAS target, the Worker's remote-free stack every teammate's).
type workerSlot struct {
	w Worker
	_ [(lineSize - unsafe.Sizeof(Worker{})%lineSize) % lineSize]byte
	d clDeque
	_ [(lineSize - unsafe.Sizeof(clDeque{})%lineSize) % lineSize]byte
}

// poolWorkerSlot pads a poolWorker, whose gate the master writes to
// dispatch it, to whole lines.
type poolWorkerSlot struct {
	pw poolWorker
	_  [(lineSize - unsafe.Sizeof(poolWorker{})%lineSize) % lineSize]byte
}
