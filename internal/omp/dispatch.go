package omp

import "github.com/interweaving/komp/internal/exec"

// Dispatch buffers: each team owns a fixed ring of pre-allocated
// descriptors per construct kind (loops, singles), indexed by the
// construct's sequence number mod the ring size — libomp's
// __kmp_dispatch buffers. Claiming a buffer is one CAS on its slot; no
// structural lock is taken and nothing is allocated on the fast path.
//
// Buffers are tagged with seq+1 (so 0 means free). The fault-free
// retirement is the last of the team's n arrivals freeing the buffer. A
// worker that dies mid-construct makes that count unreachable; the
// buffer then lingers — bounded by the ring — until the ring wraps back
// onto it and the claimant of seq+dispatchRingSize reclaims it after
// proving it quiescent: every live worker's published progress counter
// is past the old construct, so no live thread can still touch it. (This
// is the fix for the descriptor leak the map-based design had, where an
// un-GC'd descriptor survived for the team's whole lifetime.)

const (
	dispatchRingSize = 8
	dispatchRingMask = dispatchRingSize - 1
)

// The dispatch rings: a team keeps one per construct kind, and every
// worker counts and publishes its progress through each separately.
const (
	ringLoop = iota
	ringSingle
	numRings
)

// dispatchBuf is one dispatch ring slot: the shared descriptor of a
// dynamically scheduled loop, or a single construct's winner election.
type dispatchBuf struct {
	claim exec.Word // tag (seq+1) that owns the slot; 0 = free
	ready exec.Word // tag once the descriptor below is initialized
	done  exec.Word // arrivals, for the fault-free retirement
	// next is a loop's shared chunk counter (offset from lo, in
	// iterations), or 1 once a single has been won; line is the cache
	// line the claims on it bounce on.
	next    exec.Word
	line    exec.Line
	ordNext exec.Word // a loop's ordered-construct cursor (offset from lo)
	lo, hi  int
	chunk   int
}

// nextBuf enters this thread's next construct of ring kind — publishing
// the progress teammates' quiescence proofs read before touching the
// ring — and returns its sequence number and buffer, claiming and
// initializing the buffer on first arrival (lo, hi and chunk describe a
// loop; singles pass zeros). The buffer is nil when the region was
// cancelled while the slot was still held by an older construct.
func (w *Worker) nextBuf(kind, lo, hi, chunk int) (uint32, *dispatchBuf) {
	t := w.team
	id := w.seen[kind]
	w.advance(kind)
	b := &t.rings[kind][id&dispatchRingMask]
	tag := id + 1
	for {
		if b.ready.Load() == tag {
			return id, b
		}
		if b.claim.CompareAndSwap(0, tag) {
			b.lo, b.hi, b.chunk = lo, hi, max(chunk, 1)
			b.next.Store(0)
			b.done.Store(0)
			b.ordNext.Store(0)
			b.ready.Store(tag) // publish: claim's CAS + this Store order the plain writes
			return id, b
		}
		// The ring wrapped onto a construct from dispatchRingSize ago
		// that was never retired (a worker died before the last
		// arrival). Reclaim it once provably quiescent.
		if old := b.ready.Load(); old != 0 && old != tag && t.quiescent(kind, old) {
			b.free(old)
			continue
		}
		if w.doomed() {
			w.die() // safe point: nothing claimed from this construct yet
		}
		if t.parCancelled() {
			// Cancelled region: teammates may never prove the old slot
			// quiescent (they are en route to the join); the construct
			// is skipped.
			return id, nil
		}
		w.tc.Yield()
	}
}

// advance moves this thread past its next construct of ring kind and
// publishes the progress. nextBuf enters the construct this way; a
// cancelled construct is skipped this way without touching the ring,
// keeping published progress in step with the teammates that run it.
func (w *Worker) advance(kind int) {
	w.seen[kind]++
	w.ringPos[kind].Store(w.seen[kind])
}

// leave is a thread's last touch of construct id's buffer. The nth
// arrival retires it; under team shrink the count is unreachable and the
// buffer is instead reclaimed by nextBuf's quiescence rescue when the
// ring wraps onto it.
func (b *dispatchBuf) leave(t *Team, id uint32) {
	if b.done.Add(1) == uint32(t.n) {
		b.free(id + 1)
	}
}

// quiescent reports whether every live worker has moved past the
// construct of ring kind with tag `tag` — its published position names
// a later construct, which it can only have entered after leaving this
// one. Removed workers are skipped: they will never touch the buffer
// again.
func (t *Team) quiescent(kind int, tag uint32) bool {
	for _, ww := range t.workers {
		if ww.gone.Load() == 0 && ww.ringPos[kind].Load() <= tag {
			return false
		}
	}
	return true
}

// free retires the buffer. CAS-guarded so a racing fast-path retirement
// and a quiescence rescue free it exactly once; ready drops first so
// late claimants never see a half-freed slot.
func (b *dispatchBuf) free(tag uint32) {
	if b.ready.CompareAndSwap(tag, 0) {
		b.claim.CompareAndSwap(tag, 0)
	}
}
