// Package omp is the OpenMP run-time system of this repository — the
// libomp analogue. It implements parallel regions over a persistent
// ("hot") thread pool, worksharing loops with static, dynamic and guided
// schedules, barriers, critical sections, atomics, reductions, single /
// master constructs, ordered sections, locks, and a task subsystem with
// per-thread deques and work stealing.
//
// The runtime is written entirely against the exec layer, so identical
// runtime code runs in every environment — which is precisely the
// property the paper's RTK and PIK paths preserve for libomp ("identical
// object code is created for a user-level and kernel-level program",
// §2.1).
package omp

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/interweaving/komp/internal/device"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/places"
	"github.com/interweaving/komp/internal/pthread"
)

// Schedule is an OpenMP loop schedule kind.
type Schedule int

// Schedule kinds.
const (
	Static Schedule = iota
	Dynamic
	Guided
	// Affinity is the locality-aware static schedule: the block partition
	// is keyed on each worker's rank in place (CPU) order rather than its
	// thread id, so repeated loops over the same range keep the same
	// chunk→CPU mapping whatever permutation the binding policy dealt the
	// thread numbers — first-touched pages stay local on later passes.
	// Without a managed binding it degenerates to plain static.
	Affinity
)

func (s Schedule) String() string {
	switch s {
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	case Affinity:
		return "affinity"
	default:
		return "static"
	}
}

// ParseSchedule parses an OMP_SCHEDULE-style string like "dynamic,4".
func ParseSchedule(s string) (Schedule, int, error) {
	parts := strings.SplitN(strings.TrimSpace(strings.ToLower(s)), ",", 2)
	var kind Schedule
	switch parts[0] {
	case "static":
		kind = Static
	case "dynamic":
		kind = Dynamic
	case "guided":
		kind = Guided
	case "affinity":
		kind = Affinity
	default:
		return 0, 0, fmt.Errorf("unknown schedule %q", parts[0])
	}
	chunk := 0
	if len(parts) == 2 {
		n, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return 0, 0, fmt.Errorf("bad chunk in %q: %v", s, err)
		}
		chunk = n
	}
	return kind, chunk, nil
}

// BarrierAlgo selects the team barrier's arrival and release algorithm.
type BarrierAlgo int

// Barrier algorithms.
const (
	// BarrierHier (the default): arrival ascends a fanout-k combining
	// tree of per-node counters, so a barrier costs O(log n) serialized
	// cache-line transfers instead of n bounces on one central line, and
	// the release fans out through the same tree. This is the algorithm
	// hierarchical machines want (Thibault et al.), and reductions fuse
	// their combine into the arrival tree.
	BarrierHier BarrierAlgo = iota
	// BarrierFlat: one central arrival counter, and the last arriver
	// wakes every waiter (libomp's plain barrier; both the arrival and
	// the wake storm serialize).
	BarrierFlat
	// BarrierTree: flat central-counter arrival, but released threads
	// fan the wakes out with a bounded fanout — O(n) arrival, O(log n)
	// release.
	BarrierTree
)

func (b BarrierAlgo) String() string {
	switch b {
	case BarrierFlat:
		return "flat"
	case BarrierTree:
		return "tree"
	default:
		return "hier"
	}
}

// StealOrder selects the order a thief sweeps victims in.
type StealOrder int

// Steal sweep orders.
const (
	// StealNear (the default) probes victims nearest-socket-first — same
	// place, then same socket, then remote by increasing NUMA distance —
	// rotating within each ring, so steals stay local while local work
	// exists. It needs a managed placement; unplaced teams sweep
	// round-robin.
	StealNear StealOrder = iota
	// StealRR is the flat round-robin sweep (the pre-places behavior).
	StealRR
)

func (s StealOrder) String() string {
	if s == StealRR {
		return "rr"
	}
	return "near"
}

// NestedPoolPolicy selects what an inner team does with its worker
// lease at the join (KOMP_NESTED_POOL).
type NestedPoolPolicy int

// Nested lease policies.
const (
	// NestedPoolHold (the default): the forking worker keeps its inner
	// team hot across regions — the nested analogue of the top-level hot
	// team. Repeated inner regions of the same size fork with zero
	// construction cost; the lease returns when the enclosing team is
	// released.
	NestedPoolHold NestedPoolPolicy = iota
	// NestedPoolReturn: the lease goes back to the pool at every inner
	// join and no inner team is cached. Repeated inner regions pay
	// reconstruction, but siblings forked at different times can share
	// the same pool workers.
	NestedPoolReturn
)

func (p NestedPoolPolicy) String() string {
	if p == NestedPoolReturn {
		return "return"
	}
	return "hold"
}

// Options configures the runtime (the internal control variables).
type Options struct {
	// MaxThreads caps the pool; 0 means the layer's CPU count.
	MaxThreads int
	// DefaultThreads is the team size when Parallel is called with 0;
	// 0 means MaxThreads (OMP_NUM_THREADS).
	DefaultThreads int
	// NumThreadsList is the per-level team-size list of a comma-list
	// OMP_NUM_THREADS ("8,4"): entry i sizes regions at nesting level
	// i+1, the last entry covering all deeper levels. Empty means
	// DefaultThreads at every level.
	NumThreadsList []int
	// MaxActiveLevels caps how many nested parallel regions may be
	// active (team size > 1) at once — OMP_MAX_ACTIVE_LEVELS. Regions
	// forked past the cap serialize. 0 means 1: nested regions
	// serialize, the OpenMP 5.x default and this runtime's historic
	// behavior.
	MaxActiveLevels int
	// NestedPool is the inner-team lease policy (KOMP_NESTED_POOL).
	NestedPool NestedPoolPolicy
	// Schedule and Chunk are the defaults for runtime-scheduled loops
	// (OMP_SCHEDULE).
	Schedule Schedule
	Chunk    int
	// Bind pins workers to CPUs (the legacy flag; OMP_PROC_BIND=true).
	// When ProcBind is BindDefault it maps to close binding over the
	// Places partition, which reproduces the historic worker-i-on-CPU-i
	// placement while the team fits the machine; when the team does not
	// fit, workers pack ceil(threads/places) per place and each stacked
	// worker is surfaced with a ThreadBind event whose Arg1 > 0 (the
	// oversubscription signal — the old modulo wrap stacked silently).
	// HPC runs bind.
	Bind bool
	// Places is the place partition binding resolves against. nil means
	// PlacesSpec (or its default, one place per core) parsed over a flat
	// view of the layer's CPUs; environments with a machine model pass a
	// topology-aware partition instead.
	Places *places.Partition
	// PlacesSpec is an OMP_PLACES-style specification — abstract names
	// threads|cores|sockets with an optional (n) count, or explicit
	// {lo[:len[:stride]]} interval lists — parsed by New when Places is
	// nil. Invalid specs panic at New; Env pre-validates the grammar so
	// environment-driven configs fail with an error instead.
	PlacesSpec string
	// ProcBind is the OMP_PROC_BIND policy: master, close or spread place
	// the team's workers; false leaves them unmanaged and (on the
	// simulated layer) deterministically migrating between regions the
	// way unbound threads drift under a general-purpose scheduler.
	// BindDefault defers to the legacy Bind flag.
	ProcBind places.Bind
	// ProcBindList is the per-level binding list of a comma-nested
	// OMP_PROC_BIND ("spread,close"): entry i binds teams at nesting
	// level i+1, the last entry covering all deeper levels (an inner
	// team subpartitions its master's place). Empty means ProcBind at
	// every level.
	ProcBindList []places.Bind
	// StealOrder selects the task-steal victim sweep order. Set in code
	// only: StealRR is the affinity ablation's reference sweep.
	StealOrder StealOrder
	// PthreadImpl selects the pthread layer variant beneath the runtime
	// (NPTL for Linux/PIK, PTE or Custom for RTK).
	PthreadImpl pthread.Impl
	// BarrierAlgo selects the barrier arrival/release algorithm. Set in
	// code only: flat and tree are the barrier ablation's references.
	BarrierAlgo BarrierAlgo
	// TaskDeque selects the per-worker task deque algorithm. Set in code
	// only: DequeMutex is the tasking ablation's reference.
	TaskDeque TaskDequeAlgo
	// TaskCutoff is the queue-depth cutoff: a thread whose own deque
	// already holds this many ready tasks executes further tasks
	// undeferred instead of deferring them (KOMP_TASK_CUTOFF; 0, the
	// default, disables the throttle).
	TaskCutoff int
	// TaskStealTries bounds how many victims one steal sweep probes
	// (the steal fanout). 0, the default, probes every teammate.
	TaskStealTries int
	// Resilient enables team shrink: when a CPU is taken offline
	// (OfflineCPU), its worker leaves the team at the next safe point and
	// the region completes on the survivors. Static loops degrade to
	// shared-counter chunk claiming so every iteration still runs exactly
	// once. Requires Bind (offline is identified by CPU).
	Resilient bool
	// Cancellation enables the cancel constructs (the OMP_CANCELLATION
	// ICV): Cancel/CancellationPoint become operative and every
	// scheduling point checks the team's cancel flags. Off (the
	// default), Cancel returns false, CancellationPoint costs one
	// branch, and the runtime is bit-identical to one built without the
	// subsystem.
	Cancellation bool
	// CancelProp selects how cancel bits reach polling workers. Set in
	// code only: flat is the cancel ablation's reference.
	CancelProp CancelProp
	// RegionDeadlineNS arms a deadline on every parallel region
	// (KOMP_REGION_DEADLINE): a region still running that many
	// nanoseconds after its fork is cancelled as if a thread executed
	// Cancel(CancelParallel). Virtual time on the simulator, wall clock
	// on the real layer; 0 disables. Requires Cancellation.
	RegionDeadlineNS int64
	// SharedPool, if non-nil, makes the runtime lease its workers from
	// an externally owned pool shared with other runtimes — the
	// multi-tenant service (internal/tenancy) — instead of creating its
	// own. Close releases the runtime's cached leases but leaves the
	// pool running; Pool.Shutdown stops it.
	SharedPool *Pool
	// Tenant is the runtime's tenant id on a shared pool, stamped on
	// every instrumentation event the runtime emits (ompt.Event.Tenant)
	// so one spine can demultiplex the streams of all tenants. 0 — the
	// single-owner default — means "not a tenant".
	Tenant int32
	// DefaultDevice is the OMP_DEFAULT_DEVICE ICV: the device number
	// target constructs offload to. The runtime models one device
	// (number 0, the default); a negative value selects the host
	// fallback — target regions execute on the encountering thread.
	DefaultDevice int
	// DeviceCUs and DeviceLanes set the accelerator geometry when the
	// runtime builds its own device (KOMP_DEVICE=cus,lanes; default
	// 8 CUs × 32 lanes). Ignored when Device injects an instance.
	DeviceCUs, DeviceLanes int
	// Device, if non-nil, is the accelerator instance target constructs
	// offload to — the simulated environments build one per machine
	// model so the OpenMP and CCK pipelines share a map table.
	Device *device.Dev
	// Spine, if non-nil, receives every instrumentation event the
	// runtime emits (package ompt). Consumers must be registered before
	// the first Parallel; a nil spine costs one mask test per emit site.
	Spine *ompt.Spine
	// Warnings collects non-fatal configuration diagnostics Env found —
	// an OMP_PROC_BIND list with more levels than OMP_MAX_ACTIVE_LEVELS
	// allows to ever apply, a KOMP_REGION_DEADLINE that OMP_CANCELLATION
	// leaves inert. Callers surface them however their environment
	// reports (stderr, kernel log).
	Warnings []string
}

// Runtime is an OpenMP runtime instance.
type Runtime struct {
	layer exec.Layer
	lib   *pthread.Lib
	opts  Options

	// pool is set once by ensurePool — either a pool this runtime owns
	// or the tenancy service's shared one — and read lock-free after
	// that; poolMu serializes concurrent first forks.
	pool   atomic.Pointer[pool]
	poolMu sync.Mutex

	// hot and serial are the top-level hot-team caches: the teams recent
	// non-nested Parallels ran on, claimed (removed) for the duration of
	// each region and parked back at the join, reused when a next region
	// is compatible (nested regions cache theirs on the forking Worker —
	// hotChild/serialChild). Reuse keeps the repeated-region fork path
	// allocation-free; the claim-then-park protocol keeps concurrent
	// Parallel calls on one runtime from ever sharing a team.
	hot    *hotCache
	serial atomic.Pointer[Team]

	spine *ompt.Spine

	// dev is the lazily initialized accelerator (see Device); devMu
	// serializes the first construction.
	dev   atomic.Pointer[device.Dev]
	devMu sync.Mutex

	critMu   sync.Mutex
	critical map[string]*critEntry

	// lockSeq, taskSeq and groupSeq hand out lock, explicit-task and
	// taskgroup ids for the spine's Obj field.
	lockSeq  atomic.Uint64
	taskSeq  atomic.Uint64
	groupSeq atomic.Uint64

	// teamBuilds counts Team constructions (a test hook: steady-state
	// forks on a warm cache must not build new teams).
	teamBuilds atomic.Int64

	// Stats.
	Regions      atomic.Int64
	TasksRun     atomic.Int64
	TaskSteals   atomic.Int64
	TaskDepEdges atomic.Int64
	TaskCutoffs  atomic.Int64
	// LocalSteals / RemoteSteals split TaskSteals by whether thief and
	// victim sat on the same socket (only counted when the team has a
	// managed placement).
	LocalSteals  atomic.Int64
	RemoteSteals atomic.Int64
}

// critEntry pairs a named critical section's mutex with its spine id.
type critEntry struct {
	m  *pthread.Mutex
	id uint64
}

// New creates a runtime over an execution layer.
func New(layer exec.Layer, opts Options) *Runtime {
	if opts.MaxThreads <= 0 {
		opts.MaxThreads = layer.NumCPUs()
	}
	if opts.DefaultThreads <= 0 || opts.DefaultThreads > opts.MaxThreads {
		opts.DefaultThreads = opts.MaxThreads
	}
	if opts.MaxActiveLevels < 1 {
		opts.MaxActiveLevels = 1 // nested regions serialize by default
	}
	if opts.Places == nil {
		p, err := places.Parse(opts.PlacesSpec, places.Flat(layer.NumCPUs()))
		if err != nil {
			// Env pre-validates the grammar; only a spec naming CPUs the
			// layer does not have reaches here, which is a configuration
			// bug, not a runtime condition.
			panic(fmt.Sprintf("omp: invalid places spec: %v", err))
		}
		opts.Places = p
	}
	return &Runtime{
		layer:    layer,
		lib:      pthread.New(layer, opts.PthreadImpl),
		opts:     opts,
		hot:      newHotCache(hotTeamsMax),
		spine:    opts.Spine,
		critical: make(map[string]*critEntry),
	}
}

// Spine returns the runtime's instrumentation spine (nil when disabled).
func (rt *Runtime) Spine() *ompt.Spine { return rt.spine }

// Places returns the runtime's place partition.
func (rt *Runtime) Places() *places.Partition { return rt.opts.Places }

// procBind resolves the effective binding policy: an explicit ProcBind
// wins; BindDefault maps the legacy Bind flag to close binding (which
// reproduces the historic worker-i-on-CPU-i placement while the team
// fits) or to fully unmanaged workers.
func (rt *Runtime) procBind() places.Bind {
	if b := rt.opts.ProcBind; b != places.BindDefault {
		return b
	}
	if rt.opts.Bind {
		return places.BindClose
	}
	return places.BindDefault // unmanaged: the legacy unbound path
}

// threadsAt resolves the team-size ICV for a region at nesting level
// level (1-based): the matching OMP_NUM_THREADS list entry — the last
// entry covering all deeper levels — or DefaultThreads without a list.
func (rt *Runtime) threadsAt(level int) int {
	if list := rt.opts.NumThreadsList; len(list) > 0 {
		i := level - 1
		if i >= len(list) {
			i = len(list) - 1
		}
		if n := list[i]; n > 0 {
			if n > rt.opts.MaxThreads {
				return rt.opts.MaxThreads
			}
			return n
		}
	}
	return rt.opts.DefaultThreads
}

// procBindAt resolves the binding policy for a team at nesting level
// level (1-based): the matching OMP_PROC_BIND list entry — the last
// entry covering all deeper levels — falling back to the flat policy
// without a list (or where the list says default).
func (rt *Runtime) procBindAt(level int) places.Bind {
	if list := rt.opts.ProcBindList; len(list) > 0 {
		i := level - 1
		if i >= len(list) {
			i = len(list) - 1
		}
		if b := list[i]; b != places.BindDefault {
			return b
		}
	}
	return rt.procBind()
}

// Layer returns the runtime's execution layer.
func (rt *Runtime) Layer() exec.Layer { return rt.layer }

// Lib returns the pthread library beneath the runtime.
func (rt *Runtime) Lib() *pthread.Lib { return rt.lib }

// MaxThreads returns the pool capacity.
func (rt *Runtime) MaxThreads() int { return rt.opts.MaxThreads }

// DefaultThreads returns the default team size.
func (rt *Runtime) DefaultThreads() int { return rt.opts.DefaultThreads }

// DefaultSchedule returns the runtime schedule ICV.
func (rt *Runtime) DefaultSchedule() (Schedule, int) { return rt.opts.Schedule, rt.opts.Chunk }

// Close shuts down the worker pool. It must be called before the layer's
// Run can return on the simulator (pool workers otherwise sleep forever).
// On a shared pool (Options.SharedPool) Close only releases this
// runtime's cached leases; the pool keeps running for the other tenants
// until Pool.Shutdown.
func (rt *Runtime) Close(tc exec.TC) {
	rt.ReleaseCachedTeams()
	if p := rt.pool.Load(); p != nil {
		if !p.shared {
			p.shutdown(tc)
		}
		rt.pool.Store(nil)
	}
}

// ReleaseCachedTeams drains every hot and serial team the runtime has
// parked — top-level caches and, recursively, the per-worker nested
// caches — returning their worker leases to the pool. The tenancy
// service calls it on idle tenants (the work-conserving rebalance).
// It is safe against the tenant's own concurrent Parallel calls: the
// caches are claim-based, so a team is either in a cache (drained and
// owned here) or claimed by a running region (invisible to the drain) —
// never both.
func (rt *Runtime) ReleaseCachedTeams() {
	for _, t := range rt.hot.drain() {
		rt.releaseTeam(t)
	}
	if t := rt.serial.Swap(nil); t != nil {
		rt.releaseTeam(t)
	}
}

// CachedTeams returns how many idle teams the top-level hot cache
// currently parks (a test hook for the eviction bound).
func (rt *Runtime) CachedTeams() int { return rt.hot.size() }

// TeamBuilds returns how many Team structures the runtime has built so
// far (a test hook: repeated regions on a warm cache must not grow it).
func (rt *Runtime) TeamBuilds() int64 { return rt.teamBuilds.Load() }

// OfflineCPU models CPU cpu going away mid-run: every pool worker bound
// to it is marked doomed and leaves its team at the next safe point (a
// barrier arrival or a loop chunk claim) — the team shrink path. It
// returns how many workers were doomed. Safe to call from a scheduler
// callback (e.g. a fault-plan event). Requires Bind (workers are
// identified by their bound CPU); the master thread's CPU cannot be
// taken offline. Combine with Options.Resilient so static loops degrade
// to exactly-once chunk claiming — without it a dead worker's static
// block is silently lost. Note that a doomed worker's private locals die
// with it: resilient region bodies should flush per-chunk results into
// shared state (Atomic, tasks) before each chunk body returns.
func (rt *Runtime) OfflineCPU(cpu int) int {
	p := rt.pool.Load()
	if p == nil {
		return 0
	}
	n := 0
	for _, pw := range p.workers {
		if pw.cpu == cpu && pw.dead.Load() == 0 && pw.doom.CompareAndSwap(0, 1) {
			n++
		}
	}
	return n
}

// criticalEntry returns the global mutex (and spine id) for a named
// critical section.
func (rt *Runtime) criticalEntry(name string) *critEntry {
	rt.critMu.Lock()
	defer rt.critMu.Unlock()
	e, ok := rt.critical[name]
	if !ok {
		e = &critEntry{m: rt.lib.NewMutex(), id: rt.lockSeq.Add(1)}
		rt.critical[name] = e
	}
	return e
}
