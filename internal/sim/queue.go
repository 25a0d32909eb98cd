package sim

import "math/bits"

// EQAlgo selects the simulator's event-queue algorithm (NewEQ). The
// wheel is the only one production code runs; the binary heap is the
// test oracle the differential tests hold it to — both produce the exact
// same event firing order (timestamp, then seq), so traces are
// byte-identical. Host speed of both is in `go test -bench . ./internal/sim`.
type EQAlgo int

// Event-queue algorithms.
const (
	// EQWheel (the zero value) is the timer-wheel/spill hybrid:
	// near-future events in fixed wheel buckets (one virtual nanosecond
	// per bucket, so a bucket holds exactly one timestamp and FIFO order
	// preserves seq order), far-future events in a sorted spill heap that
	// refills the wheel as the clock advances.
	EQWheel EQAlgo = iota
	// EQHeap is the classic binary min-heap over (at, seq) — O(log n)
	// sift per event, kept as the differential tests' reference.
	EQHeap
)

func (a EQAlgo) String() string {
	if a == EQHeap {
		return "heap"
	}
	return "wheel"
}

// eventNode is one scheduled event. Nodes are intrusive (the next link
// chains both wheel buckets and the per-Sim free list) and recycled on
// fire or cancel, so the steady-state scheduling path allocates nothing.
// gen is bumped on every recycle; a cancel handle captures the node's
// generation and becomes a no-op once the node has been reused.
type eventNode struct {
	at        Time
	seq       uint64 // FIFO tiebreak for equal times
	gen       uint32 // recycle generation (lazy-deletion cancel safety)
	cancelled bool   // discarded on pop without advancing the clock
	proc      *Proc  // proc to resume, or nil if fn-only
	fn        func() // optional callback run on the scheduler goroutine
	next      *eventNode
}

// eventQueue is the priority queue of pending events, ordered by
// (at, seq). Cancelled nodes stay queued (lazy deletion) and are
// recycled by the caller on pop.
type eventQueue interface {
	// push queues n and reports whether it took a far-future path (the
	// wheel's spill; never on the heap baseline).
	push(n *eventNode) bool
	// pop removes and returns the minimum event, or nil when empty.
	pop() *eventNode
	// peekTime reports the minimum pending timestamp.
	peekTime() (Time, bool)
	size() int
}

// --- Binary-heap baseline ---

// heapQueue is the classic binary min-heap: the wheel's spill level on
// its own, plus the empty-queue answers the eventQueue contract asks for.
type heapQueue struct{ spillHeap }

func (q *heapQueue) push(n *eventNode) bool {
	q.spillHeap.push(n)
	return false
}

func (q *heapQueue) pop() *eventNode {
	if q.size() == 0 {
		return nil
	}
	return q.spillHeap.pop()
}

func (q *heapQueue) peekTime() (Time, bool) {
	if q.size() == 0 {
		return 0, false
	}
	return q.min().at, true
}

// --- Timer-wheel / spill hybrid ---

// Wheel geometry: one bucket per virtual nanosecond, wheelSize buckets,
// so the wheel covers [cur, cur+wheelSpan). A bucket can only ever hold
// events of a single timestamp (two times with the same ring index
// differ by a multiple of wheelSpan, which cannot both be inside the
// window), so FIFO order within a bucket IS (at, seq) order: seq grows
// monotonically and every insertion appends at the tail.
const (
	wheelBits = 16
	wheelSize = 1 << wheelBits // buckets (and ns of horizon)
	wheelMask = wheelSize - 1
	wheelSpan = Time(wheelSize)
)

// wbucket is a FIFO chain of same-timestamp events.
type wbucket struct {
	head, tail *eventNode
}

// wheelArrays is the wheel's fixed-size storage: the buckets and the two
// lower bitmap levels, 1 MiB in all. It is all-empty whenever the queue
// is, so a Sim whose Run has drained its queue hands it to the next Sim
// through wheelFree instead of leaving a megabyte to the collector and
// having the next NewEQ allocate and clear another.
type wheelArrays struct {
	buckets [wheelSize]wbucket
	l0      [wheelSize / 64]uint64      // one bit per bucket
	l1      [wheelSize / 64 / 64]uint64 // one bit per l0 word
}

// wheelFreeMax caps the idle wheels kept for reuse: a figure runs its
// cells one after another, so one idle wheel serves a sequential caller,
// and the cap bounds what a burst of concurrent Sims leaves behind.
const wheelFreeMax = 8

// wheelFree holds drained wheels, shared by all Sims of the process like
// coroFree.
var wheelFree = freeList[wheelArrays]{max: wheelFreeMax}

// wheelQueue indexes near-future events by timestamp delta in wheel
// buckets and keeps far-future events in a sorted spill heap. A
// three-level bitmap (64-ary) over the buckets finds the next non-empty
// bucket in a handful of word scans, so the simulator's "jump to next
// event" stays O(1)-ish even when the horizon is sparse.
//
// Invariants:
//   - cur is the timestamp of the last popped event (the DES clock as the
//     queue has observed it); every queued event has at >= cur.
//   - every bucket-resident event has at - cur < wheelSpan;
//   - spill events had at - cur >= wheelSpan when last examined; migrate
//     moves them into the wheel as cur advances (order-preserving: the
//     spill pops in (at, seq) order and appends to bucket tails).
//   - a is nil only while no event sits in a bucket (l2 == 0): release
//     hands the arrays back once the queue is empty, and bucketInsert
//     takes a wheel again.
type wheelQueue struct {
	cur Time
	n   int // total queued events (buckets + chain + spill)

	// chain is the detached remainder of the bucket currently being
	// served: popping a 1024-waiter same-timestamp release is one bucket
	// drain, and subsequent pops walk the chain with no bitmap search.
	chain *eventNode

	a     *wheelArrays
	l2    uint64 // one bit per l1 word
	spill spillHeap
}

// release returns the arrays of an empty queue to wheelFree.
func (q *wheelQueue) release() {
	if q.n == 0 && q.a != nil {
		wheelFree.put(q.a)
		q.a = nil
	}
}

func (q *wheelQueue) setBit(i int) {
	q.a.l0[i>>6] |= 1 << uint(i&63)
	q.a.l1[i>>12] |= 1 << uint((i>>6)&63)
	q.l2 |= 1 << uint(i>>12)
}

func (q *wheelQueue) clearBit(i int) {
	w := i >> 6
	a := q.a
	a.l0[w] &^= 1 << uint(i&63)
	if a.l0[w] == 0 {
		a.l1[w>>6] &^= 1 << uint(w&63)
		if a.l1[w>>6] == 0 {
			q.l2 &^= 1 << uint(w>>6)
		}
	}
}

// nextFrom returns the lowest set bucket index >= i, or -1. Shift counts
// of 64 are fine in Go (the result is 0), so the word-boundary cases
// fall out naturally.
func (q *wheelQueue) nextFrom(i int) int {
	a := q.a
	w := i >> 6
	if x := a.l0[w] >> uint(i&63); x != 0 {
		return i + bits.TrailingZeros64(x)
	}
	w1 := w >> 6
	if x := a.l1[w1] & (^uint64(0) << uint(w&63+1)); x != 0 {
		w = w1<<6 | bits.TrailingZeros64(x)
		return w<<6 | bits.TrailingZeros64(a.l0[w])
	}
	if x := q.l2 & (^uint64(0) << uint(w1+1)); x != 0 {
		w1 = bits.TrailingZeros64(x)
		w = w1<<6 | bits.TrailingZeros64(a.l1[w1])
		return w<<6 | bits.TrailingZeros64(a.l0[w])
	}
	return -1
}

// nextBucket returns the index of the bucket holding the earliest wheel
// event. The circular scan starts at cur's ring position: ring order
// from there is timestamp order, because the window is at most wheelSpan
// wide. Must only be called when the wheel is non-empty (l2 != 0).
func (q *wheelQueue) nextBucket() int {
	start := int(q.cur) & wheelMask
	if i := q.nextFrom(start); i >= 0 {
		return i
	}
	return q.nextFrom(0)
}

func (q *wheelQueue) bucketInsert(n *eventNode) {
	if q.a == nil {
		if q.a = wheelFree.get(); q.a == nil {
			q.a = new(wheelArrays)
		}
	}
	i := int(n.at) & wheelMask
	b := &q.a.buckets[i]
	n.next = nil
	if b.head == nil {
		b.head = n
		q.setBit(i)
	} else {
		b.tail.next = n
	}
	b.tail = n
}

// migrate refills the wheel from the spill as the clock advances. The
// spill pops in (at, seq) order, so same-timestamp spill events land in
// their bucket in seq order; and any event scheduled directly into that
// bucket later necessarily carries a larger seq, so FIFO stays correct.
func (q *wheelQueue) migrate() {
	for q.spill.size() > 0 && q.spill.min().at-q.cur < wheelSpan {
		q.bucketInsert(q.spill.pop())
	}
}

func (q *wheelQueue) push(n *eventNode) bool {
	q.n++
	if n.at-q.cur < wheelSpan {
		q.bucketInsert(n)
		return false
	}
	q.spill.push(n)
	return true
}

func (q *wheelQueue) pop() *eventNode {
	if n := q.chain; n != nil {
		q.chain = n.next
		n.next = nil
		q.n--
		return n
	}
	q.migrate()
	if q.l2 != 0 {
		i := q.nextBucket()
		b := &q.a.buckets[i]
		n := b.head
		q.chain = n.next
		n.next = nil
		b.head, b.tail = nil, nil
		q.clearBit(i)
		q.cur = n.at
		q.n--
		return n
	}
	if q.spill.size() > 0 {
		n := q.spill.pop()
		q.cur = n.at
		q.n--
		return n
	}
	return nil
}

func (q *wheelQueue) peekTime() (Time, bool) {
	if q.chain != nil {
		return q.chain.at, true
	}
	q.migrate()
	if q.l2 != 0 {
		return q.a.buckets[q.nextBucket()].head.at, true
	}
	if q.spill.size() > 0 {
		return q.spill.min().at, true
	}
	return 0, false
}

func (q *wheelQueue) size() int { return q.n }

// spillHeap is the far-future overflow level: a plain binary min-heap
// over (at, seq), hand-rolled over *eventNode so pushes and pops stay
// free of the container/heap interface boxing. Only events beyond the
// wheel horizon pay its O(log n); its backing slice is reused across
// refills, so the steady state allocates nothing. Callers check size
// before min and pop.
type spillHeap struct {
	h []*eventNode
}

func eventLess(a, b *eventNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *spillHeap) size() int       { return len(s.h) }
func (s *spillHeap) min() *eventNode { return s.h[0] }

func (s *spillHeap) push(n *eventNode) {
	s.h = append(s.h, n)
	i := len(s.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(s.h[i], s.h[parent]) {
			break
		}
		s.h[i], s.h[parent] = s.h[parent], s.h[i]
		i = parent
	}
}

func (s *spillHeap) pop() *eventNode {
	min := s.h[0]
	last := len(s.h) - 1
	s.h[0] = s.h[last]
	s.h[last] = nil
	s.h = s.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s.h) && eventLess(s.h[l], s.h[small]) {
			small = l
		}
		if r < len(s.h) && eventLess(s.h[r], s.h[small]) {
			small = r
		}
		if small == i {
			break
		}
		s.h[i], s.h[small] = s.h[small], s.h[i]
		i = small
	}
	return min
}
