package exec

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// The real layer's futex is a parking lot: a fixed array of shards
// indexed by a hash of the futex word's address, each a mutex-guarded
// FIFO of parked threads plus a count of them that a waker reads without
// the lock. Words that hash to different shards never touch a common
// cache line; a wake on a word nobody sleeps on is one atomic load.
//
// The waiter and the waker cannot miss each other:
//
//	waiter: lock shard; waiters++; re-check *w == val; enqueue; unlock; sleep
//	waker:  (caller changed *w); load waiters; if nonzero: lock, unlink, unlock, signal
//
// Both sides use sequentially consistent atomics, so either the waker's
// load sees the waiter's increment — and then takes the lock, behind
// which the waiter is already enqueued or will re-check a value the
// waker changed before it looked — or the increment comes after that
// load and the waiter's re-check sees the new value and does not sleep.

// futexShardBits sizes the lot: 64 shards keep unrelated words (each
// pool worker's gate, each barrier node) apart on any team this host
// can run, in 4 KiB per layer.
const futexShardBits = 6
const futexShards = 1 << futexShardBits

// parker is one sleeping thread: the word it sleeps on, its link in the
// shard's FIFO (or free list), and the one-token channel its waker
// signals. Parkers are recycled per wait through the shard's free list —
// taken under the lock the waiter already holds — rather than kept in
// the thread context: a realTC from RealLayer.TC is shared by every
// goroutine that uses one session handle, and several may sleep at once.
type parker struct {
	w    *Word
	next *parker
	wake chan struct{}
}

func newParker() *parker { return &parker{wake: make(chan struct{}, 1)} }

type futexQueue struct {
	mu         sync.Mutex
	waiters    atomic.Int32 // threads between their increment and their unlinking
	head, tail *parker
	free       *parker // idle parkers; grows to the shard's peak sleeper count
}

// futexShard pads a queue to a cache line of its own, so wakers polling
// one shard's count do not share a line with another shard's lock.
type futexShard struct {
	futexQueue
	_ [cacheLineBytes - unsafe.Sizeof(futexQueue{})%cacheLineBytes]byte
}

const cacheLineBytes = 64

// futexShardOf hashes a word's address (Fibonacci hashing: neighbouring
// words of one struct spread over the lot).
func futexShardOf(w *Word) int {
	return int(uint64(uintptr(unsafe.Pointer(w))) * 0x9E3779B97F4A7C15 >> (64 - futexShardBits))
}

func (t *realTC) FutexWait(w *Word, val uint32) bool {
	s := &t.layer.futex[futexShardOf(w)]
	s.mu.Lock()
	s.waiters.Add(1) // before the re-check: see the handshake above
	if w.Load() != val {
		s.waiters.Add(-1)
		s.mu.Unlock()
		return false
	}
	p := s.free
	if p == nil {
		p = newParker()
	} else {
		s.free, p.next = p.next, nil
	}
	p.w = w
	if s.tail == nil {
		s.head = p
	} else {
		s.tail.next = p
	}
	s.tail = p
	s.mu.Unlock()
	<-p.wake
	s.mu.Lock()
	p.next, s.free = s.free, p
	s.mu.Unlock()
	return true
}

func (t *realTC) FutexWake(w *Word, n int) int {
	l := t.layer
	l.noteProgress()
	s := &l.futex[futexShardOf(w)]
	if n == 0 || s.waiters.Load() == 0 {
		return 0
	}
	// Unlink up to n parkers of w, oldest first, onto a private list;
	// parkers of other words that share the shard keep their order.
	var woken, kept *parker // kept: the last parker left in front of *link
	link, wokenLink := &s.head, &woken
	count := 0
	s.mu.Lock()
	for p := *link; p != nil && count != n; p = *link {
		if p.w != w {
			kept, link = p, &p.next
			continue
		}
		*link, p.next = p.next, nil
		if p == s.tail {
			s.tail = kept
		}
		*wokenLink, wokenLink = p, &p.next
		count++
	}
	s.waiters.Add(int32(-count))
	s.mu.Unlock()
	// Signal outside the lock: a woken thread that runs at once must not
	// find the shard still held. A parker belongs to its sleeper again
	// the moment it is signalled, so its link is read first.
	for p := woken; p != nil; {
		next := p.next
		p.w = nil
		p.wake <- struct{}{}
		p = next
	}
	return count
}
