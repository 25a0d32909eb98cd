package omp

import (
	"fmt"
	"sync/atomic"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/places"
)

// Team is the shared state of one parallel region.
type Team struct {
	rt     *Runtime
	n      int
	fn     func(*Worker)
	loop   regionLoop // the loop fn runs when the region is a ParallelFor
	region uint64     // spine region id

	// Nesting chain: parent is the enclosing team, parentW the worker of
	// it that forked this team (both nil at top level). level counts
	// every enclosing region including serialized ones (omp_get_level);
	// activeLevel counts only teams of size > 1 (omp_get_active_level).
	parent      *Team
	parentW     *Worker
	level       int
	activeLevel int

	workers []*Worker

	// pws is the team's worker lease: pws[i] is the pool worker bound to
	// team slot i (pws[0] is nil — slot 0 is the encountering thread).
	// Held until the team is released back to the pool.
	pws []*poolWorker

	// cpus is the region's placement: cpus[i] is the CPU the binding
	// policy assigned to team slot i (nil when workers are unmanaged).
	// The worksharing Affinity schedule and the nearest-first steal
	// order key on it. placedCPU is the master CPU cpus was computed
	// for, so a reused hot team only recomputes placement when the
	// encountering thread moved.
	cpus      []int
	placedCPU int
	// migrate marks a proc_bind(false) team: workers are re-bound to a
	// deterministic per-region rotation, modeling unbound threads
	// drifting under a general-purpose scheduler.
	migrate bool
	// stealNear: thieves sweep victims nearest-first — the team is
	// placed and StealOrder is not the round-robin reference.
	stealNear bool

	// alive is the live team size: n minus workers lost to CPU-offline
	// faults. On a fault-free run it stays n, and every comparison
	// against it degenerates to the classic fixed-size protocol.
	alive exec.Word
	// resilient mirrors Options.Resilient for the region.
	resilient bool

	// subActive is a set-once flag: some worker of this team has forked
	// an inner team at least once. Barrier and join wait loops only look
	// across team boundaries for stealable work when it is set, so flat
	// (non-nesting) regions pay nothing for the nested-steal path.
	subActive exec.Word

	// Join/explicit barrier state. bar is the hierarchical arrival tree
	// (BarrierHier, the default); barrier holds the generation every
	// algorithm releases on and the central counter the flat and tree
	// algorithms arrive on.
	bar       *barTree
	barrier   barCounter
	relBudget exec.Word // tree-release wake budget
	// fanRelease: team barriers release through treeRelease (every
	// algorithm but BarrierFlat, whose single waker wakes all).
	fanRelease bool

	// Cancellation (cancel.go). cancellable mirrors the OMP_CANCELLATION
	// ICV; with it off none of the fields below are ever touched and
	// every cancellation check in the runtime is one branch on the bool.
	// cancelFlags is the authoritative cancel-bit word; cancelLine is
	// the one hot line all pollers miss on under flat propagation (under
	// tree propagation the bits ride the barrier tree's per-node lines
	// instead). joinBar is the dedicated join barrier of a cancellable
	// region: inner barriers may be abandoned by a cancel, so the
	// region's join must not share their generation counter (libomp's
	// plain vs fork-join barrier split).
	cancellable bool
	cancelTree  bool // propagate cancel bits down the barrier tree
	cancelFlags exec.Word
	cancelLine  exec.Line
	joinBar     barCounter

	// Worksharing state: one fixed ring of pre-allocated construct
	// descriptors per construct kind, indexed by construct sequence
	// (libomp's dispatch buffers) — no structural lock, no per-construct
	// allocation.
	rings [numRings][dispatchRingSize]dispatchBuf

	// Tasking.
	pending exec.Word // tasks created and not yet finished
	// sleepers counts threads parked in a barrier's futex wait — a task
	// producer wakes one per ready task (and the barrier completer wakes
	// all before draining), so a parked team turns into thieves instead
	// of sleeping through the drain. The word is epoch-tagged (high half
	// a region epoch, low half the count; see addSleeper/removeSleeper):
	// a join's released waiters decrement only after they resume, which
	// on a reused hot team can be after the master has already forked
	// the next region, and those stragglers are awake — counting them
	// would make the next region's producers pay futex wakes for
	// sleepers that do not exist.
	sleepers exec.Word

	// Reduction state: per-thread contribution slots plus the fused
	// combine-at-barrier protocol. redMark[i] is the reduction round
	// slot i was written for, so the combine skips slots of workers
	// that died before contributing. redArmed/redDone track whether the
	// barrier in flight is a reduction barrier; redResult is the
	// combined value the completer broadcasts before the release.
	redSlots  []float64
	redMark   []uint32
	redOp     exec.Word
	redArmed  exec.Word
	redDone   exec.Word
	redResult float64

	// Copyprivate broadcast slot.
	cpVal any

	// atomicLine is the line shared atomics bounce on.
	atomicLine exec.Line
}

// Parallel runs fn on a team of n threads (0 means the default ICV). The
// calling thread becomes thread 0 of the team; pool workers are leased
// and dispatched through the fork tree. Parallel returns after the
// implicit join barrier.
func (rt *Runtime) Parallel(tc exec.TC, n int, fn func(*Worker)) {
	rt.parallel(tc, nil, n, fn, regionLoop{})
}

// regionLoop is the loop of a combined parallel-for region. The team
// carries it by value, so the region needs no closure over the bounds
// and a repeated ParallelFor allocates nothing.
type regionLoop struct {
	lo, hi int
	opt    ForOpt
	body   func(i int)
}

// ParallelFor runs the worksharing loop body over [lo, hi) on a team of
// n threads (0 means the default ICV) — #pragma omp parallel for.
func (rt *Runtime) ParallelFor(tc exec.TC, n, lo, hi int, opt ForOpt, body func(i int)) {
	rt.parallel(tc, nil, n, (*Worker).runRegionLoop, regionLoop{lo, hi, opt, body})
}

func (w *Worker) runRegionLoop() {
	l := &w.team.loop
	w.ForEach(l.lo, l.hi, l.opt, l.body)
}

// Parallel forks a nested parallel region from inside an enclosing one:
// this worker becomes thread 0 of a real inner team leased from the
// shared pool (serialized instead when OMP_MAX_ACTIVE_LEVELS is reached
// or no pool workers are free). It returns after the inner join.
func (w *Worker) Parallel(n int, fn func(*Worker)) {
	w.team.rt.parallel(w.tc, w, n, fn, regionLoop{})
}

// masterGid is the physical identity a team's slot-0 worker inherits:
// forking never migrates the encountering thread, so the master of an
// inner team carries its parent worker's gid; the top-level encountering
// thread is -1 (it is not a pool worker).
func masterGid(parent *Worker) int32 {
	if parent == nil {
		return -1
	}
	return parent.gid
}

func (rt *Runtime) parallel(tc exec.TC, parent *Worker, n int, fn func(*Worker), loop regionLoop) {
	level, active := 1, 0
	var parentRegion uint64
	if parent != nil {
		level = parent.team.level + 1
		active = parent.team.activeLevel
		parentRegion = parent.region
	}
	if n <= 0 {
		n = rt.threadsAt(level)
	}
	if n > rt.opts.MaxThreads {
		n = rt.opts.MaxThreads
	}
	if active >= rt.opts.MaxActiveLevels && n > 1 {
		n = 1 // OMP_MAX_ACTIVE_LEVELS reached: serialize this region
	}
	region := uint64(rt.Regions.Add(1))
	sp := rt.spine
	if sp.Enabled(ompt.ParallelBegin) {
		sp.Emit(ompt.Event{Kind: ompt.ParallelBegin, CPU: int32(tc.CPU()),
			TimeNS: tc.Now(), Region: region, Level: int32(level),
			Tenant: rt.opts.Tenant, Obj: parentRegion, Arg0: int64(n)})
	}
	if n == 1 {
		// Serialized region: no team machinery (but a deadline still
		// arms — a serialized region can cancel its own loops/tasks).
		team := rt.serialTeam(parent, fn)
		team.loop = loop
		team.region = region
		stop := rt.armDeadline(tc, team)
		w := team.workers[0]
		w.tc = tc
		w.gid = masterGid(parent)
		w.enterRegion(region)
		if parent != nil {
			// Register as the parent's sub-team so an outer cancel
			// reaches this region's loops and tasks.
			parent.sub.Store(team)
			parent.team.subActive.Store(1)
		}
		w.emitPlain(ompt.ImplicitTaskBegin, 0, 0)
		fn(w)
		w.drainAllTasks()
		w.emitPlain(ompt.ImplicitTaskEnd, 0, 0)
		if parent != nil {
			parent.sub.Store(nil)
			parent.serialChild = team
		} else if !rt.serial.CompareAndSwap(nil, team) {
			// A concurrent serialized region already parked its team;
			// drop this one (releasing any nested leases its worker
			// accumulated — a serial team itself holds none).
			rt.releaseTeam(team)
		}
		if stop != nil {
			stop()
		}
	} else {
		rt.ensurePool(tc)
		team, hc := rt.hotTeam(parent, n, fn)
		n = team.n // a lease shortfall builds a smaller team
		team.loop = loop
		team.region = region
		rt.placeTeam(team, tc.CPU())
		stop := rt.armDeadline(tc, team)
		master := team.workers[0]
		master.tc = tc
		master.gid = masterGid(parent)
		master.enterRegion(region)
		if parent != nil {
			parent.sub.Store(team)
			parent.team.subActive.Store(1)
			if team.cancellable && team.ancestorCancelled() {
				// Forked under an already-cancelled ancestor: cancel this
				// region up front so it converges straight at its join.
				if team.publishCancel(tc, cancelBitParallel) {
					team.emitCancelParallel(tc)
				}
			}
		}
		if team.cpus != nil {
			master.emitBind(team.cpus[0])
		}
		// Tree fork: the master dispatches only its fanout children; woken
		// workers forward the rest, so the serialized fork cost on the
		// master is O(fanout · log n) instead of the linear wake loop.
		master.forkChildren()
		master.emitPlain(ompt.ImplicitTaskBegin, 0, 0)
		fn(master)
		master.join() // implicit join barrier
		master.emitPlain(ompt.ImplicitTaskEnd, 0, 0)
		if parent != nil {
			parent.sub.Store(nil)
		}
		if parent != nil && rt.opts.NestedPool == NestedPoolReturn {
			// Lease policy "return": give the workers back at every
			// join instead of keeping the inner team hot.
			rt.releaseTeam(team)
		} else {
			// Park the team back in its site's cache. It was out of the
			// cache for the whole region, so a concurrent Parallel on
			// this runtime can never have claimed it; anything the LRU
			// bound pushes out goes back to the pool.
			for _, ev := range hc.put(team) {
				rt.releaseTeam(ev)
			}
		}
		if stop != nil {
			stop()
		}
	}
	if sp.Enabled(ompt.ParallelEnd) {
		sp.Emit(ompt.Event{Kind: ompt.ParallelEnd, CPU: int32(tc.CPU()),
			TimeNS: tc.Now(), Region: region, Level: int32(level),
			Tenant: rt.opts.Tenant, Obj: parentRegion, Arg0: int64(n)})
	}
}

// hotTeam claims a team for the region from the nesting site's hot-team
// cache — the top-level cache rt.hot when parent is nil, the forking
// worker's hotChild otherwise — or builds a fresh one over a new lease
// when no cached team of size n is reusable. The claimed team is out of
// the cache while the region runs (parallel parks it back at the join),
// so concurrent regions on one runtime never share a team. A reused
// team costs nothing to "construct": the repeated-region path stays
// allocation-free. Returns the cache the join must park the team in.
func (rt *Runtime) hotTeam(parent *Worker, n int, fn func(*Worker)) (*Team, *hotCache) {
	hc := rt.hot
	if parent != nil {
		if parent.hotChild == nil {
			parent.hotChild = newHotCache(hotTeamsMax)
		}
		hc = parent.hotChild
	}
	for {
		cached := hc.take(n)
		if cached == nil {
			break
		}
		if rt.reusable(cached, n) {
			cached.fn = fn
			cached.resetRegionState()
			return cached, hc
		}
		// Stale (shrunk, doomed, cancel residue): return its lease and
		// try the next entry of this size, if any.
		rt.releaseTeam(cached)
	}
	p := rt.pool.Load()
	leased := p.lease(n - 1)
	if len(leased) < n-1 && hc.size() > 0 {
		// Lease shortfall while idle teams sit in this site's cache:
		// their parked workers are exactly the capacity the pool lacks.
		// Evict them all and re-lease before settling for a smaller team.
		for _, ev := range hc.drain() {
			rt.releaseTeam(ev)
		}
		leased = append(leased, p.lease(n-1-len(leased))...)
	}
	n = 1 + len(leased)
	t := newTeam(rt, parent, n, fn)
	t.pws = make([]*poolWorker, n)
	for i, pw := range leased {
		t.pws[i+1] = pw
		pw.slot = i + 1
	}
	return t, hc
}

// resetRegionState restores per-region shared state on a reused hot
// team so the region is indistinguishable — in scheduling decisions and
// in the simulated timeline — from one running on a freshly built team:
// each deque is back at initial capacity with a cold top line (growth is
// re-charged per region, as a fresh team would). A deque clears only
// what the previous region pushed, so an empty region costs the master
// two plain stores per worker here. Each worker restarts its own steal
// cursors when it picks the region up (enterRegion). Cache state proper
// (the worker lease, the barrier tree, placement) is exactly what hot
// reuse keeps.
func (t *Team) resetRegionState() {
	for _, w := range t.workers {
		w.deque.reset()
	}
	// New sleeper epoch: stragglers still draining out of the previous
	// region's join no longer count as parked (they are awake).
	t.sleepers.Store(((t.sleepers.Load() >> sleepEpochShift) + 1) << sleepEpochShift)
}

// enterRegion is a worker's first act in a region, on its own thread:
// it takes the region id its events are stamped with, restarts its
// victim rotation cold, as on a fresh team, and empties its implicit
// task's dependence tracker — dependences order only the tasks of one
// region, and the implicit task outlives it on a hot team. All of it is
// worker-private and stays out of the master's fork path — a straggler
// still sweeping for tasks on its way out of region k's join would race
// a master that wrote them for region k+1.
func (w *Worker) enterRegion(region uint64) {
	w.region = region
	w.stealRR = 0
	w.stealCur = [3]int{}
	if it := w.curTask; it != nil && it.deps != nil {
		it.deps.reset(w)
	}
}

// sleepEpochShift splits the sleepers word: the high half is the region
// epoch, the low half the count of threads currently parked in a futex
// wait on this team's barriers.
const sleepEpochShift = 16

// addSleeper publishes this thread as parked and returns the tag its
// matching removeSleeper must present.
func (t *Team) addSleeper() uint32 { return t.sleepers.Add(1) }

// removeSleeper withdraws a sleeper published under tag. If the region
// epoch has moved on — the team was reused while this thread was still
// resuming from the old region's release — the count was already reset
// and there is nothing to withdraw.
func (t *Team) removeSleeper(tag uint32) {
	for {
		cur := t.sleepers.Load()
		if cur>>sleepEpochShift != tag>>sleepEpochShift {
			return
		}
		if t.sleepers.CompareAndSwap(cur, cur-1) {
			return
		}
	}
}

// parkedSleepers returns the current epoch's parked-thread count.
func (t *Team) parkedSleepers() uint32 {
	return t.sleepers.Load() & (1<<sleepEpochShift - 1)
}

// reusable reports whether a cached hot team can serve another region of
// the requested size unchanged: same size, nobody lost to faults, no
// leased worker doomed or dead, and — for cancellable teams — no cancel
// bits or deadline in flight (a cancelled region's barrier trees hold
// half-completed generations, and on the real layer a deadline alarm can
// race the join; both rebuild instead of reusing).
func (rt *Runtime) reusable(t *Team, n int) bool {
	if t.n != n || int(t.alive.Load()) != n {
		return false
	}
	for _, pw := range t.pws[1:] {
		if pw == nil || pw.dead.Load() == 1 || pw.doom.Load() == 1 {
			return false
		}
	}
	if t.cancellable && (t.cancelFlags.Load() != 0 || rt.opts.RegionDeadlineNS != 0) {
		return false
	}
	return true
}

// releaseTeam returns a team's lease (and, recursively, the leases of
// any inner hot teams its workers cached) to the pool.
func (rt *Runtime) releaseTeam(t *Team) {
	for _, w := range t.workers {
		if w.hotChild != nil {
			for _, c := range w.hotChild.drain() {
				rt.releaseTeam(c)
			}
			w.hotChild = nil
		}
		if w.serialChild != nil {
			rt.releaseTeam(w.serialChild)
			w.serialChild = nil
		}
	}
	if len(t.pws) > 1 {
		if p := rt.pool.Load(); p != nil {
			p.release(t.pws[1:])
		}
	}
	t.pws = nil
}

// serialTeam claims the cached single-thread team for a serialized
// region (the top-level slot rt.serial, or the forking worker's
// serialChild), rebuilding only when cancellation state could have
// leaked from a previous region. Like hotTeam, the claim removes the
// team from its slot — parallel parks it back after the region — so
// concurrent serialized regions on one runtime never share it.
func (rt *Runtime) serialTeam(parent *Worker, fn func(*Worker)) *Team {
	var cached *Team
	if parent == nil {
		cached = rt.serial.Swap(nil)
	} else {
		cached, parent.serialChild = parent.serialChild, nil
	}
	if cached != nil &&
		(!cached.cancellable ||
			(cached.cancelFlags.Load() == 0 && rt.opts.RegionDeadlineNS == 0)) {
		cached.fn = fn
		cached.resetRegionState()
		return cached
	}
	if cached != nil {
		// Cancel residue: rebuild, returning any nested leases the stale
		// team's worker accumulated.
		rt.releaseTeam(cached)
	}
	return newTeam(rt, parent, 1, fn)
}

func newTeam(rt *Runtime, parent *Worker, n int, fn func(*Worker)) *Team {
	rt.teamBuilds.Add(1)
	t := &Team{
		rt:        rt,
		n:         n,
		fn:        fn,
		workers:   make([]*Worker, n),
		redSlots:  make([]float64, n),
		redMark:   make([]uint32, n),
		parentW:   parent,
		level:     1,
		placedCPU: -1,
	}
	if parent != nil {
		t.parent = parent.team
		t.level = parent.team.level + 1
		t.activeLevel = parent.team.activeLevel
	}
	if n > 1 {
		t.activeLevel++
	}
	t.alive.Store(uint32(n))
	t.resilient = rt.opts.Resilient
	for i := 0; i < n; i++ {
		t.workers[i] = &Worker{team: t, id: i, deque: newTaskDeque(rt.opts.TaskDeque)}
	}
	t.fanRelease = rt.opts.BarrierAlgo != BarrierFlat
	if n > 1 && rt.opts.BarrierAlgo == BarrierHier {
		t.bar = newBarTree(n, fanout)
	}
	t.cancellable = rt.opts.Cancellation
	t.cancelTree = t.cancellable && t.bar != nil &&
		rt.opts.CancelProp != CancelPropFlat
	return t
}

// placeTeam computes the region's worker placement from the binding
// policy at the team's nesting level: master/close/spread assign each
// slot a CPU of its place (an inner team subpartitions its master's
// place), proc_bind(false) arms per-region migration, and the legacy
// unmanaged mode (no ProcBind, Bind off) leaves the team placement-free.
// A reused hot team keeps its placement while the encountering thread
// stays put.
func (rt *Runtime) placeTeam(t *Team, masterCPU int) {
	switch bind := rt.procBindAt(t.level); bind {
	case places.BindDefault:
	case places.BindFalse:
		t.migrate = true
	default:
		if t.cpus != nil && t.placedCPU == masterCPU {
			return
		}
		if t.level > 1 {
			t.cpus = rt.opts.Places.AssignNested(t.n, bind, masterCPU)
		} else {
			t.cpus = rt.opts.Places.Assign(t.n, bind, masterCPU)
		}
		t.placedCPU = masterCPU
		t.stealNear = t.cpus != nil && rt.opts.StealOrder != StealRR
		for _, w := range t.workers {
			// The nearest-first steal order is keyed on cpus: recompute
			// lazily against the new placement.
			w.stealOrder, w.stealRings = nil, nil
		}
	}
}

// slotCPU returns the CPU team slot id runs the region on: its assigned
// place CPU under a managed binding, or — under proc_bind(false) — a
// deterministic per-generation rotation that models unbound threads
// drifting across the machine. ok is false for unmanaged teams.
func (t *Team) slotCPU(id int, gen uint32) (cpu int, ok bool) {
	if t.cpus != nil {
		return t.cpus[id], true
	}
	if t.migrate {
		return (id + int(gen)*7) % t.rt.layer.NumCPUs(), true
	}
	return 0, false
}

// Worker is a thread's view of a parallel region: the receiver for every
// OpenMP construct.
type Worker struct {
	tc   exec.TC
	team *Team
	id   int
	pw   *poolWorker // nil for team masters and serialized regions
	// gid is the stable physical-worker identity carried on every
	// emitted event (ompt.Event.Gid): the pool-worker id for leased
	// slots, -1 for the encountering thread and the masters of every
	// team it forks down the nesting chain.
	gid int32
	// region is the spine id of the region this worker is running, taken
	// from the team when the worker picks its dispatch up (enterRegion).
	// Events are stamped from this copy: a straggler still emitting out of
	// region k's join must not read Team.region while the master writes k+1.
	region uint64

	// sub is the inner team this worker is currently master of (set for
	// the duration of a nested Parallel, nil otherwise): cancel
	// publication descends through it, and teammates waiting at barriers
	// steal from it.
	sub atomic.Pointer[Team]
	// hotChild / serialChild cache this worker's inner teams between
	// nested regions — the per-(nesting site, size) hot-team cache,
	// bounded by hotTeamsMax. The leases they hold are returned
	// when the enclosing team is released, when the LRU bound evicts, or
	// at every inner join under KOMP_NESTED_POOL=return.
	hotChild    *hotCache
	serialChild *Team

	// Per-thread construct sequence counters (each thread encounters the
	// same constructs in the same order — the SPMD contract): seen[k]
	// counts the constructs of dispatch ring k.
	seen        [numRings]uint32
	sectionSeen uint32
	redSeen     uint32

	// Published progress: ringPos[k] is the sequence tag (seq+1) of the
	// latest construct of dispatch ring k this worker entered, and gone
	// whether the worker has been removed from the team. Teammates read
	// these to prove an old dispatch buffer quiescent before reclaiming
	// it.
	ringPos [numRings]exec.Word
	gone    exec.Word

	// cancelSeen is this worker's private copy of the team cancel bits
	// it has already observed (and paid the coherence miss for): a poll
	// that reads a value equal to cancelSeen is a shared-state cache hit
	// and costs nothing.
	cancelSeen uint32

	// Tasking.
	deque    taskDeque
	curTask  *task
	curGroup *taskgroup
	stealRR  int
	// stealOrder/stealRings are the nearest-first victim sweep — teammate
	// slots ordered same place, same socket, then remote by distance —
	// built lazily at this worker's first steal of a placed team;
	// stealCur rotates each ring independently.
	stealOrder []int
	stealRings []int
	stealCur   [3]int
	// freeTasks is this worker's free list of task records (owner only);
	// remoteFree is the stack other workers push the records they free
	// onto, taken whole by the owner when freeTasks runs dry. It sits on
	// a cache line of its own: remote frees must not bounce the line the
	// owner's task creation writes.
	freeTasks  *task
	_          [56]byte
	remoteFree atomic.Pointer[task]
	_          [56]byte
}

// placeRank returns this worker's rank in the team's CPU order (ties by
// thread id) — the key the Affinity schedule partitions by — or the
// thread id itself when the team has no placement.
func (w *Worker) placeRank() int {
	cpus := w.team.cpus
	if cpus == nil {
		return w.id
	}
	my := cpus[w.id]
	r := 0
	for j, c := range cpus {
		if c < my || (c == my && j < w.id) {
			r++
		}
	}
	return r
}

// forkChildren dispatches this worker's children in the fork tree — a
// fanout-ary heap over team slots 0..n-1 — writing each child's work
// descriptor and waking it. The master seeds the tree and every woken
// worker forwards its own children, replacing the master's linear wake
// loop with an O(log n) critical path.
func (w *Worker) forkChildren() {
	t := w.team
	for j := 1; j <= fanout; j++ {
		c := w.id*fanout + j
		if c >= t.n {
			return
		}
		w.dispatchSlot(c)
	}
}

// dispatchSlot forks team slot c. A dead or doomed slot is removed from
// the team here and its orphaned subtree adopted: this worker dispatches
// the grandchildren itself, so a dead interior node never strands its
// descendants.
func (w *Worker) dispatchSlot(c int) {
	t := w.team
	pw := t.pws[c]
	if pw.dead.Load() == 1 || pw.doom.Load() == 1 {
		// The slot's CPU is offline: fork nothing and shrink the team.
		w.removeWorker(c)
		for j := 1; j <= fanout; j++ {
			gc := c*fanout + j
			if gc >= t.n {
				return
			}
			w.dispatchSlot(gc)
		}
		return
	}
	pw.team = t
	w.tc.Charge(forkChargeNS + w.tc.Costs().CacheLineXferNS)
	pw.gate.Add(1)
	w.tc.FutexWake(&pw.gate, 1)
}

// removeWorker takes team slot id (possibly this worker itself, on the
// die path) out of the team: the live count shrinks, and if the removal
// is what a barrier in flight was waiting on, the barrier is completed
// on the removed worker's behalf — through the arrival tree under the
// hierarchical algorithm, against the central counter otherwise.
func (w *Worker) removeWorker(id int) {
	t := w.team
	t.workers[id].gone.Store(1)
	alive := t.alive.Add(^uint32(0))
	w.emitPlain(ompt.ShrinkTeam, int64(id), int64(alive))
	if t.cancellable {
		// The removed worker may have been the arrival the dedicated
		// join barrier was waiting on — a team that shrinks and cancels
		// at the same barrier still converges at the join.
		w.removeArrival(&t.joinBar, alive)
	}
	if t.bar != nil {
		w.hierRemove(id)
		return
	}
	w.removeArrival(&t.barrier, alive)
}

// TC returns the worker's thread context.
func (w *Worker) TC() exec.TC { return w.tc }

// Wtime returns elapsed seconds since the layer started — omp_get_wtime
// (wall-clock on real goroutines, virtual time on the simulator).
func (w *Worker) Wtime() float64 { return float64(w.tc.Now()) / 1e9 }

// InParallel reports whether any enclosing parallel region is active
// (team size > 1) — omp_in_parallel. A serialized region nested inside
// an active one still reports true; a top-level serialized region
// reports false.
func (w *Worker) InParallel() bool { return w.team.activeLevel > 0 }

// Level returns the nesting level of the enclosing parallel region —
// omp_get_level. Serialized regions count: 1 inside any top-level
// region, 2 inside a region forked from it, 0 never (a Worker only
// exists inside a region).
func (w *Worker) Level() int { return w.team.level }

// ActiveLevel returns the number of enclosing active (team size > 1)
// parallel regions — omp_get_active_level.
func (w *Worker) ActiveLevel() int { return w.team.activeLevel }

// AncestorThreadNum returns the thread number of this thread's ancestor
// at nesting level level — omp_get_ancestor_thread_num. Level 0 is the
// initial thread (always 0), level Level() the thread itself; out of
// range returns -1.
func (w *Worker) AncestorThreadNum(level int) int {
	if level < 0 || level > w.team.level {
		return -1
	}
	if level == 0 {
		return 0
	}
	x := w
	for x.team.level > level {
		x = x.team.parentW
	}
	return x.id
}

// TeamSize returns the size of the team at nesting level level —
// omp_get_team_size. Level 0 is the implicit initial team of size 1;
// out of range returns -1.
func (w *Worker) TeamSize(level int) int {
	if level < 0 || level > w.team.level {
		return -1
	}
	if level == 0 {
		return 1
	}
	x := w
	for x.team.level > level {
		x = x.team.parentW
	}
	return x.team.n
}

// MaxThreads returns the pool capacity — omp_get_max_threads.
func (w *Worker) MaxThreads() int { return w.team.rt.opts.MaxThreads }

// ThreadNum returns the OpenMP thread number (omp_get_thread_num).
func (w *Worker) ThreadNum() int { return w.id }

// NumThreads returns the team size (omp_get_num_threads).
func (w *Worker) NumThreads() int { return w.team.n }

// NumAlive returns the live team size: NumThreads minus workers lost to
// CPU-offline faults. Equal to NumThreads on a fault-free run.
func (w *Worker) NumAlive() int { return int(w.team.alive.Load()) }

// Runtime returns the owning runtime.
func (w *Worker) Runtime() *Runtime { return w.team.rt }

// Master runs fn on thread 0 only (no implied barrier).
func (w *Worker) Master(fn func()) {
	if w.id == 0 {
		fn()
	}
}

// String aids debugging.
func (w *Worker) String() string {
	return fmt.Sprintf("omp-worker(%d/%d@L%d)", w.id, w.team.n, w.team.level)
}
