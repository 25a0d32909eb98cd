package sim

import "sync"

// freeList is a capped, mutex-guarded stack of idle objects shared by all
// Sims of the process: the coroutines and timer wheels a finished run
// leaves for the next one.
type freeList[T any] struct {
	sync.Mutex
	list []*T
	max  int
}

// get pops an idle object, or returns nil when there is none.
func (f *freeList[T]) get() *T {
	f.Lock()
	defer f.Unlock()
	n := len(f.list)
	if n == 0 {
		return nil
	}
	x := f.list[n-1]
	f.list[n-1], f.list = nil, f.list[:n-1]
	return x
}

// put keeps x for reuse and reports whether it did; a full list drops it.
func (f *freeList[T]) put(x *T) bool {
	f.Lock()
	defer f.Unlock()
	if len(f.list) >= f.max {
		return false
	}
	f.list = append(f.list, x)
	return true
}
