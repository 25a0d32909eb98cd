package omp

import (
	"testing"
	"unsafe"
)

// TestSlabLayout: the padded per-worker slab elements are whole cache
// lines, and every element of a slab — whatever its length, on either
// side of the allocator's header range — starts on a line boundary.
func TestSlabLayout(t *testing.T) {
	t.Logf("Worker %d, clDeque %d, workerSlot %d, poolWorker %d, poolWorkerSlot %d",
		unsafe.Sizeof(Worker{}), unsafe.Sizeof(clDeque{}), unsafe.Sizeof(workerSlot{}),
		unsafe.Sizeof(poolWorker{}), unsafe.Sizeof(poolWorkerSlot{}))
	var ws workerSlot
	if sz := unsafe.Sizeof(ws); sz%lineSize != 0 {
		t.Errorf("workerSlot is %d bytes, want a multiple of %d", sz, lineSize)
	}
	if off := unsafe.Offsetof(ws.d); off%lineSize != 0 {
		t.Errorf("the deque starts at byte %d of its slot, want a line boundary", off)
	}
	if sz := unsafe.Sizeof(poolWorkerSlot{}); sz%lineSize != 0 {
		t.Errorf("poolWorkerSlot is %d bytes, want a multiple of %d", sz, lineSize)
	}
	for n := 1; n <= 200; n++ {
		checkSlabAligned(t, newLineSlab[workerSlot](n), n)
		checkSlabAligned(t, newLineSlab[poolWorkerSlot](n), n)
	}
	for _, n := range []int{256, 511, 1024} {
		checkSlabAligned(t, newLineSlab[workerSlot](n), n)
		checkSlabAligned(t, newLineSlab[poolWorkerSlot](n), n)
	}
}

func checkSlabAligned[T any](t *testing.T, s lineSlab[T], n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if a := uintptr(unsafe.Pointer(s.at(i))); a%lineSize != 0 {
			t.Fatalf("%T slab of %d: element %d at %#x, %d bytes past a line", *new(T), n, i, a, a%lineSize)
		}
	}
}
