package ompt

import (
	"fmt"
	"io"
	"sync"
)

// Profile is the per-construct profiler: a spine consumer that
// attributes time to fork/join, barriers, worksharing, locks, and
// tasking, per construct category. On the simulator the attributed
// times are virtual nanoseconds and the whole breakdown is a pure
// function of the seed — `kompbench -profile` relies on that to diff
// two runs byte-for-byte.
type Profile struct {
	mu sync.Mutex

	cat [catCount]catAcc

	// Per-worker open-interval state, keyed by (gid, thread): once
	// teams nest, the OpenMP thread number alone aliases across sibling
	// inner teams (each has a "thread 0"), and the region id alone is
	// not stable across a span — a pool worker's implicit-task end is
	// emitted after the join barrier, by which time a reused hot team
	// may already carry the next region's id. The physical-worker gid
	// is both unique and stable, so spans pair correctly. A worker
	// waits on at most one sync object at a time, so one open slot per
	// (worker, sync kind) suffices; work and task bodies nest, so
	// those are stacks.
	threads map[WorkerKey]*threadProf
	// regionBegin is ParallelBegin's time per live region, read by
	// other threads' ImplicitTaskBegin to attribute fork latency.
	regionBegin map[RegionKey]int64
	// regionLevel records each live region's nesting level so
	// ParallelEnd can attribute inner regions to catNested.
	regionLevel map[RegionKey]int32
}

// WorkerKey identifies one physical executing worker: Event.Gid when the
// emitter carries one (all OpenMP runtime events; unique per physical
// worker, stable across regions and levels), the bare thread id
// otherwise (gid 0: thread lifecycle, VIRGIL, CCK — emitters with no
// cross-region spans). The tenant id disambiguates workers of distinct
// runtimes sharing one pool: a pool worker keeps its gid across leases,
// so without the tenant a worker's spans from two tenants would
// interleave in one slot. Every consumer pairing a worker's begin/end
// events keys them by it.
type WorkerKey struct {
	Gid, Thread int32
	Tenant      int32
}

// RegionKey identifies one live parallel region. Region ids are scoped
// per runtime instance, so two tenants of a shared pool both have a
// region 1; the tenant id keeps their spans from colliding.
type RegionKey struct {
	Tenant int32
	Region uint64
}

type threadProf struct {
	syncAt [8]int64 // SyncAcquire time, by Sync; -1 when closed
	work   []workOpen
	task   []int64
	implAt int64 // ImplicitTaskBegin time; -1 when closed
	born   int64 // ThreadBegin time
}

type workOpen struct {
	kind Work
	at   int64
}

// Category indices: fixed order, which is also the report order.
const (
	catRegion = iota
	catFork
	catImplicit
	catBarrier
	catLoopStatic
	catLoopDynamic
	catLoopGuided
	catSections
	catSingle
	catChunk
	catTaskCreate
	catTaskExec
	catTaskSteal
	catCritical
	catLock
	catOrdered
	catTaskwait
	catFutex
	catTaskDep
	catTaskgroup
	catThread
	catShrink
	// catNested double-counts regions at level >= 2 (their time is also
	// in catRegion); the row only appears once a run actually nests, so
	// non-nested reports are unchanged.
	catNested
	// Device offload categories; the rows only appear when a run
	// offloads, so host-only reports are unchanged.
	catDeviceInit
	catTarget
	catDataOp
	catCount
)

var catNames = [catCount]string{
	"parallel-region", "fork-dispatch", "implicit-task", "barrier-wait",
	"loop-static", "loop-dynamic", "loop-guided", "sections", "single",
	"chunk-dispatch", "task-create", "task-exec", "task-steal",
	"critical-wait", "lock-wait", "ordered-wait", "taskwait", "futex-wait",
	"task-dependence", "taskgroup-wait",
	"thread", "team-shrink",
	"nested-region",
	"device-init", "target-region", "data-op",
}

type catAcc struct {
	count   int64
	totalNS int64
}

func syncCat(s Sync) int {
	switch s {
	case SyncBarrier:
		return catBarrier
	case SyncCritical:
		return catCritical
	case SyncLock:
		return catLock
	case SyncOrdered:
		return catOrdered
	case SyncTaskwait:
		return catTaskwait
	case SyncFutex:
		return catFutex
	case SyncTaskgroup:
		return catTaskgroup
	}
	return -1
}

func workCat(w Work) int {
	switch w {
	case WorkLoopStatic:
		return catLoopStatic
	case WorkLoopDynamic:
		return catLoopDynamic
	case WorkLoopGuided:
		return catLoopGuided
	case WorkSections:
		return catSections
	case WorkSingle:
		return catSingle
	}
	return -1
}

// NewProfile creates a profiler and registers it on sp.
func NewProfile(sp *Spine) *Profile {
	p := &Profile{threads: map[WorkerKey]*threadProf{},
		regionBegin: map[RegionKey]int64{}, regionLevel: map[RegionKey]int32{}}
	sp.On(p.consume,
		ThreadBegin, ThreadEnd,
		ParallelBegin, ParallelEnd,
		ImplicitTaskBegin, ImplicitTaskEnd,
		TaskCreate, TaskSchedule, TaskComplete, TaskSteal, TaskDependence,
		WorkBegin, WorkEnd, DispatchChunk,
		SyncAcquire, SyncAcquired,
		ShrinkTeam,
		DeviceInit, TargetEnd, DataOp)
	return p
}

func (p *Profile) thread(who WorkerKey) *threadProf {
	tp := p.threads[who]
	if tp == nil {
		tp = &threadProf{implAt: -1}
		for i := range tp.syncAt {
			tp.syncAt[i] = -1
		}
		p.threads[who] = tp
	}
	return tp
}

func (p *Profile) add(cat int, ns int64) {
	p.cat[cat].count++
	p.cat[cat].totalNS += ns
}

func (p *Profile) consume(ev Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	tp := p.thread(WorkerKey{ev.Gid, ev.Thread, ev.Tenant})
	rk := RegionKey{ev.Tenant, ev.Region}
	switch ev.Kind {
	case ThreadBegin:
		tp.born = ev.TimeNS
	case ThreadEnd:
		p.add(catThread, ev.TimeNS-tp.born)
	case ParallelBegin:
		p.regionBegin[rk] = ev.TimeNS
		p.regionLevel[rk] = ev.Level
	case ParallelEnd:
		if t0, ok := p.regionBegin[rk]; ok {
			p.add(catRegion, ev.TimeNS-t0)
			if p.regionLevel[rk] > 1 {
				p.add(catNested, ev.TimeNS-t0)
			}
			delete(p.regionBegin, rk)
			delete(p.regionLevel, rk)
		}
	case ImplicitTaskBegin:
		if t0, ok := p.regionBegin[rk]; ok {
			p.add(catFork, ev.TimeNS-t0)
		}
		tp.implAt = ev.TimeNS
	case ImplicitTaskEnd:
		if tp.implAt >= 0 {
			p.add(catImplicit, ev.TimeNS-tp.implAt)
			tp.implAt = -1
		}
	case TaskCreate:
		p.add(catTaskCreate, 0)
	case TaskSchedule:
		tp.task = append(tp.task, ev.TimeNS)
	case TaskComplete:
		if n := len(tp.task); n > 0 {
			p.add(catTaskExec, ev.TimeNS-tp.task[n-1])
			tp.task = tp.task[:n-1]
		}
	case TaskSteal:
		p.add(catTaskSteal, 0)
	case TaskDependence:
		p.add(catTaskDep, 0)
	case WorkBegin:
		tp.work = append(tp.work, workOpen{kind: ev.Work, at: ev.TimeNS})
	case WorkEnd:
		if n := len(tp.work); n > 0 {
			o := tp.work[n-1]
			tp.work = tp.work[:n-1]
			if c := workCat(o.kind); c >= 0 {
				p.add(c, ev.TimeNS-o.at)
			}
		}
	case DispatchChunk:
		p.add(catChunk, 0)
	case SyncAcquire:
		if int(ev.Sync) < len(tp.syncAt) {
			tp.syncAt[ev.Sync] = ev.TimeNS
		}
	case SyncAcquired:
		if int(ev.Sync) < len(tp.syncAt) && tp.syncAt[ev.Sync] >= 0 {
			if c := syncCat(ev.Sync); c >= 0 {
				p.add(c, ev.TimeNS-tp.syncAt[ev.Sync])
			}
			tp.syncAt[ev.Sync] = -1
		}
	case ShrinkTeam:
		p.add(catShrink, 0)
	case DeviceInit:
		p.add(catDeviceInit, 0)
	case TargetEnd:
		// TargetEnd carries the kernel's device elapsed time in Arg0, so
		// no begin-pairing state is needed.
		p.add(catTarget, ev.Arg0)
	case DataOp:
		p.add(catDataOp, 0)
	}
}

// Report renders the breakdown: one row per construct category that
// occurred, in a fixed order, with count, total attributed time, and
// time per occurrence. The output is deterministic given a
// deterministic event stream.
func (p *Profile) Report(w io.Writer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(w, "%-16s %10s %14s %12s\n", "construct", "count", "total us", "us/op")
	for c := 0; c < catCount; c++ {
		a := p.cat[c]
		if a.count == 0 {
			continue
		}
		fmt.Fprintf(w, "%-16s %10d %14.3f %12.3f\n", catNames[c], a.count,
			float64(a.totalNS)/1e3, float64(a.totalNS)/1e3/float64(a.count))
	}
}

// Total returns the accumulated (count, total ns) of a category by its
// report name, for tests.
func (p *Profile) Total(name string) (int64, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := 0; c < catCount; c++ {
		if catNames[c] == name {
			return p.cat[c].count, p.cat[c].totalNS
		}
	}
	return 0, 0
}
