package omp

import "github.com/interweaving/komp/internal/ompt"

// ForOpt configures a worksharing loop.
type ForOpt struct {
	// Sched selects the schedule; Chunk its chunk size (0 = default:
	// block partition for static, 1 for dynamic, min 1 for guided).
	Sched Schedule
	Chunk int
	// NoWait elides the implicit barrier at loop end.
	NoWait bool
}

// For executes the canonical worksharing loop for the half-open range
// [lo, hi). The body receives contiguous sub-ranges (chunks); use ForEach
// for a per-iteration body. The implicit barrier at the end is elided
// with NoWait.
func (w *Worker) For(lo, hi int, opt ForOpt, body func(lo, hi int)) {
	c := w.tc.Costs()
	n := w.team.n
	// The work events carry the declared schedule; the chunk events show
	// what actually ran (a resiliently degraded static loop dispatches
	// dynamic-style chunks under a loop-static work region).
	wk := workKind(opt.Sched)
	seq := uint64(w.seen[ringLoop])
	w.emitWork(ompt.WorkBegin, wk, seq, int64(lo), int64(hi))
	sched := opt.Sched
	if (sched == Static || sched == Affinity) && w.team.resilient {
		// Under team shrink a block partition computed from the team
		// size would silently lose a dead worker's block; degrade to
		// shared-counter chunk claiming so every iteration is claimed
		// exactly once whatever subset of the team survives. The chunk
		// size is a pure function of the bounds and team size, so every
		// worker degrades identically.
		sched = Dynamic
		if opt.Chunk <= 0 {
			opt.Chunk = (hi - lo + 8*n - 1) / (8 * n)
			if opt.Chunk < 1 {
				opt.Chunk = 1
			}
		}
	}
	if w.team.cancellable && w.pollCancel()&cancelBitParallel != 0 {
		// The region is cancelled: skip the construct, keeping sequence
		// counters and published progress in step with teammates that
		// consumed it, so ring quiescence proofs and per-thread event
		// pairing stay valid. The closing barrier is a no-op too.
		if sched == Dynamic || sched == Guided {
			w.advance(ringLoop)
		}
		w.emitWork(ompt.WorkEnd, wk, seq, int64(lo), int64(hi))
		if !opt.NoWait {
			w.Barrier()
		}
		return
	}
	switch sched {
	case Static:
		w.tc.Charge(staticSetupNS)
		w.staticChunks(w.id, lo, hi, opt.Chunk, wk, seq, body)
	case Affinity:
		// Identical block math to static, but blocks are dealt by the
		// worker's rank in place (CPU) order instead of its thread id, so
		// the chunk→CPU mapping survives whatever thread-number
		// permutation the binding policy dealt — repeated passes over the
		// same range touch the same memory from the same place, and
		// first-touched pages stay local.
		w.tc.Charge(staticSetupNS + int64(n)) // + the O(team) rank scan
		w.staticChunks(w.placeRank(), lo, hi, opt.Chunk, wk, seq, body)
	case Dynamic, Guided:
		id, b := w.nextBuf(ringLoop, lo, hi, opt.Chunk)
		if b == nil {
			break // cancelled while acquiring the dispatch buffer
		}
		for {
			if w.doomed() {
				w.die() // safe point: unclaimed chunks go to survivors
			}
			if w.team.cancellable && w.pollCancel() != 0 {
				// Cancelled (the construct or the whole region): stop
				// claiming; remaining chunks are abandoned. Arrival
				// accounting below still runs, so retirement is intact.
				break
			}
			// The shared chunk counter is one cache line: claims
			// serialize across the team (the real cost of dynamic,1).
			w.tc.Contend(&b.line, c.AtomicRMWNS+c.CacheLineXferNS)
			s, e := w.claimChunk(b, sched == Guided)
			if s >= hi {
				break
			}
			w.emitWork(ompt.DispatchChunk, wk, seq, int64(s), int64(e))
			body(s, e)
		}
		b.leave(w.team, id)
	}
	w.emitWork(ompt.WorkEnd, wk, seq, int64(lo), int64(hi))
	if !opt.NoWait {
		w.Barrier()
	}
}

// claimChunk takes the next chunk [s, e) of loop buffer b — a fixed
// chunk under dynamic, under guided a share of what remains that shrinks
// with it — or returns s >= hi once the loop is exhausted.
func (w *Worker) claimChunk(b *dispatchBuf, guided bool) (s, e int) {
	if !guided {
		s = b.lo + int(b.next.Add(uint32(b.chunk))) - b.chunk
		return s, min(s+b.chunk, b.hi)
	}
	total := b.hi - b.lo
	for {
		off := int(b.next.Load())
		if off >= total {
			return b.hi, b.hi
		}
		remaining := total - off
		sz := min(max(remaining/(2*w.team.n), b.chunk), remaining)
		if b.next.CompareAndSwap(uint32(off), uint32(off+sz)) {
			return b.lo + off, b.lo + off + sz
		}
		w.tc.Charge(w.tc.Costs().AtomicRMWNS)
	}
}

// staticSetupNS is the cost of computing a static partition.
const staticSetupNS = 25

// staticChunks executes the static partition of [lo, hi) owned by rank:
// the block partition when chunk <= 0, round-robin chunks otherwise.
// Static passes the thread id as rank; Affinity passes the place rank.
func (w *Worker) staticChunks(rank, lo, hi, chunk int, wk ompt.Work, seq uint64, body func(lo, hi int)) {
	n := w.team.n
	if chunk <= 0 {
		// Block partition.
		total := hi - lo
		base := total / n
		rem := total % n
		myLo := lo + rank*base + min(rank, rem)
		myHi := myLo + base
		if rank < rem {
			myHi++
		}
		if myLo < myHi {
			if w.team.cancellable && w.pollCancel() != 0 {
				return // cancelled: the block is abandoned
			}
			w.emitWork(ompt.DispatchChunk, wk, seq, int64(myLo), int64(myHi))
			body(myLo, myHi)
		}
		return
	}
	// Round-robin chunks.
	for s := lo + rank*chunk; s < hi; s += n * chunk {
		if w.team.cancellable && w.pollCancel() != 0 {
			return // cancelled: remaining chunks are abandoned
		}
		e := s + chunk
		if e > hi {
			e = hi
		}
		w.emitWork(ompt.DispatchChunk, wk, seq, int64(s), int64(e))
		body(s, e)
	}
}

// ForEach is For with a per-iteration body.
func (w *Worker) ForEach(lo, hi int, opt ForOpt, body func(i int)) {
	w.For(lo, hi, opt, func(s, e int) {
		for i := s; i < e; i++ {
			body(i)
		}
	})
}

// ForOrdered executes a worksharing loop with an ordered clause. The body
// receives the iteration index and an ordered closure that runs its
// argument in strict iteration order.
func (w *Worker) ForOrdered(lo, hi int, opt ForOpt, body func(i int, ordered func(func()))) {
	id := w.seen[ringLoop] // the descriptor the chunk iterator will use
	var d *dispatchBuf
	inner := func(i int) {
		body(i, func(fn func()) {
			tc := w.tc
			want := uint32(i - lo)
			w.emitSync(ompt.SyncAcquire, ompt.SyncOrdered, uint64(id))
			for {
				cur := d.ordNext.Load()
				if cur == want {
					break
				}
				// Blocking on the cursor is a futex wait; FutexWait
				// charges the wait-entry cost itself (including the
				// re-check race where the value moved on), so the loop
				// adds nothing.
				tc.FutexWait(&d.ordNext, cur)
			}
			w.emitSync(ompt.SyncAcquired, ompt.SyncOrdered, uint64(id))
			fn()
			d.ordNext.Add(1)
			tc.FutexWake(&d.ordNext, -1)
			w.emitSync(ompt.SyncRelease, ompt.SyncOrdered, uint64(id))
		})
	}
	// Pre-create the descriptor so `d` is bound before iteration.
	_, d = w.nextBuf(ringLoop, lo, hi, opt.Chunk)
	if d == nil {
		// Cancelled while acquiring the dispatch buffer: the whole
		// construct is skipped (its closing barrier is a no-op).
		if !opt.NoWait {
			w.Barrier()
		}
		return
	}
	w.seen[ringLoop]-- // nextBuf in For will re-fetch the same id
	w.ForEach(lo, hi, ForOpt{Sched: opt.Sched, Chunk: opt.Chunk, NoWait: true}, inner)
	if w.seen[ringLoop] == id { // static path did not consume the descriptor
		w.seen[ringLoop]++
		d.leave(w.team, id)
	}
	if !opt.NoWait {
		w.Barrier()
	}
}

// Single runs fn on the first thread to arrive; the others skip it. The
// construct ends with a barrier unless nowait.
func (w *Worker) Single(nowait bool, fn func()) {
	w.singleImpl(nowait, func() { fn() })
}

// SingleCopyPrivate runs fn on one thread and broadcasts its result to
// every thread's return value (the copyprivate clause). It always ends
// with a barrier (copyprivate requires it).
func (w *Worker) SingleCopyPrivate(fn func() any) any {
	t := w.team
	w.singleImpl(true, func() {
		t.cpVal = fn()
	})
	w.Barrier()
	v := t.cpVal
	w.Barrier() // the value must be read before the next single overwrites it
	return v
}

func (w *Worker) singleImpl(nowait bool, fn func()) {
	t := w.team
	c := w.tc.Costs()
	id := w.seen[ringSingle]
	w.emitWork(ompt.WorkBegin, ompt.WorkSingle, uint64(id), 0, 0)
	if t.n == 1 {
		w.seen[ringSingle]++
		fn()
		w.emitWork(ompt.WorkEnd, ompt.WorkSingle, uint64(id), 1, 0)
		return
	}
	won := int64(0)
	if t.cancellable && w.pollCancel()&cancelBitParallel != 0 {
		// Cancelled region: skip the construct (nobody runs the body),
		// keeping published progress in step for ring quiescence.
		w.advance(ringSingle)
	} else if _, b := w.nextBuf(ringSingle, 0, 0, 0); b != nil { // nil: cancelled while acquiring
		// The winner election bounces the slot's line across arrivals.
		w.tc.Contend(&b.line, c.AtomicRMWNS+c.CacheLineXferNS)
		if b.next.CompareAndSwap(0, 1) {
			won = 1
			fn()
		}
		b.leave(t, id)
	}
	w.emitWork(ompt.WorkEnd, ompt.WorkSingle, uint64(id), won, 0)
	if !nowait {
		w.Barrier()
	}
}

// Sections distributes the given section bodies over the team (dynamic,
// one section per grab), with the implicit end barrier unless nowait.
func (w *Worker) Sections(nowait bool, sections ...func()) {
	seq := uint64(w.sectionSeen)
	w.sectionSeen++
	w.emitWork(ompt.WorkBegin, ompt.WorkSections, seq, 0, int64(len(sections)))
	w.ForEach(0, len(sections), ForOpt{Sched: Dynamic, Chunk: 1, NoWait: true}, func(i int) {
		sections[i]()
	})
	w.emitWork(ompt.WorkEnd, ompt.WorkSections, seq, 0, int64(len(sections)))
	if !nowait {
		w.Barrier()
	}
}
