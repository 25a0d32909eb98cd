package omp

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/places"
	"github.com/interweaving/komp/internal/pthread"
)

// pool is the persistent worker pool: workers are created once and sleep
// on per-worker futex words between parallel regions, the way libomp
// keeps its team threads parked. Teams do not own the pool — they lease
// workers from it (lease/release), so several teams of a nesting
// hierarchy can hold disjoint worker sets at once, and — when the pool
// is shared — so can the teams of several independent runtimes (the
// multi-tenant service).
type pool struct {
	lib     *pthread.Lib
	workers []*poolWorker // by creation order; worker i has id i+1

	// shared marks a pool owned by a tenancy service rather than by one
	// runtime: Runtime.Close leaves it running (Pool.Shutdown stops it).
	shared bool

	// free is the lease allocator's free list, kept sorted by id so a
	// lease hands out the lowest ids first — for a full-size top-level
	// team this reproduces the historic slot-i ↔ pool-worker-(i-1)
	// mapping exactly. The mutex is uncontended on the simulator (one
	// proc runs at a time) and cheap on the real layer (leases happen at
	// team construction, never per region on the hot path).
	mu   sync.Mutex
	free []*poolWorker

	// starved latches a lease shortfall: a fork asked for more workers
	// than the free list held. The tenancy service polls it (takeStarved)
	// to trigger a work-conserving rebalance — idle tenants' cached
	// leases go back to the pool so a busy tenant's next fork gets them.
	starved exec.Word

	// doubleReleases counts releases of workers that were not leased —
	// the claim-path bug class the per-worker CAS guard exists to
	// contain. Always zero on a correct runtime; tests assert it.
	doubleReleases atomic.Int64
}

type poolWorker struct {
	id   int
	slot int       // team slot for the current lease (id when unleased)
	cpu  int       // pool-level binding (-1 when unbound)
	gate exec.Word // generation gate; master bumps it to dispatch
	team *Team     // assignment for the new generation
	stop exec.Word
	doom exec.Word // CPU taken offline: die at the next safe point
	dead exec.Word // worker thread has exited for good (offline death)
	// leased guards the claim path: 1 while some team's lease holds this
	// worker. lease/release transfer ownership with a CAS, so a worker
	// can never be handed to two teams even if a buggy caller
	// double-releases it — the failed CAS drops the duplicate instead of
	// duplicating the free-list entry.
	leased exec.Word
	// curCPU is the worker's current binding, encoded cpu+1 (0 when
	// unbound): unlike cpu it follows per-region re-pins, so a fault
	// injector can doom whatever is on a CPU right now (OfflineCurrent).
	curCPU exec.Word
	th     *pthread.Thread
}

// newPool creates nworkers pool workers with ids 1..nworkers; cpus, when
// non-nil, is indexed by worker id and gives each its pool-level binding.
func newPool(tc exec.TC, lib *pthread.Lib, nworkers int, cpus []int, shared bool) *pool {
	p := &pool{lib: lib, shared: shared, workers: make([]*poolWorker, 0, nworkers)}
	slots := newLineSlab[poolWorkerSlot](nworkers)
	for i := 1; i <= nworkers; i++ {
		pw := &slots.at(i - 1).pw
		pw.id, pw.slot, pw.cpu = i, i, -1
		if cpus != nil {
			pw.cpu = cpus[i]
		}
		pw.curCPU.Store(uint32(pw.cpu + 1))
		pw.th = lib.Create(tc, pthread.Attr{CPU: pw.cpu}, func(wtc exec.TC) {
			p.workerLoop(wtc, pw)
		})
		p.workers = append(p.workers, pw)
	}
	p.free = append([]*poolWorker(nil), p.workers...)
	return p
}

func (rt *Runtime) ensurePool(tc exec.TC) *pool {
	if p := rt.pool.Load(); p != nil {
		return p
	}
	rt.poolMu.Lock()
	defer rt.poolMu.Unlock()
	if p := rt.pool.Load(); p != nil {
		return p
	}
	if sp := rt.opts.SharedPool; sp != nil {
		rt.pool.Store(sp.p)
		return sp.p
	}
	// Pool-level placement: under a managed binding the affinity
	// subsystem assigns each slot a CPU of its place (close over the
	// default per-core partition reproduces the historic worker-i-on-
	// CPU-i pinning while the pool fits the machine). Per-region
	// placement in workerLoop re-pins workers when a region's policy
	// assignment differs.
	var cpus []int
	if bind := rt.procBind(); bind != places.BindDefault && bind != places.BindFalse {
		cpus = rt.opts.Places.Assign(rt.opts.MaxThreads, bind, tc.CPU())
	}
	p := newPool(tc, rt.lib, rt.opts.MaxThreads-1, cpus, false)
	rt.pool.Store(p)
	return p
}

// lease takes up to k workers off the free list, lowest ids first, and
// claims each with a leased-word CAS — the allocator-level guarantee
// that no worker is ever held by two teams at once. Dead and doomed
// workers are leased like live ones: dispatchSlot removes them from the
// team at fork, which is the same per-region re-shrink the flat pool
// performed. A shortfall returns fewer than k (latching the starved
// flag) — the caller builds a smaller team.
func (p *pool) lease(k int) []*poolWorker {
	if k <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if k > len(p.free) {
		p.starved.Store(1)
		k = len(p.free)
	}
	if k <= 0 {
		return nil
	}
	out := make([]*poolWorker, 0, k)
	kept := p.free[:0]
	for _, pw := range p.free {
		if len(out) < k && pw.leased.CompareAndSwap(0, 1) {
			out = append(out, pw)
		} else {
			kept = append(kept, pw)
		}
	}
	p.free = kept
	return out
}

// release returns leased workers to the free list, restoring the sorted
// order lease depends on. The per-worker CAS makes a double release
// inert: the duplicate is counted and dropped, never re-enqueued.
func (p *pool) release(pws []*poolWorker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pw := range pws {
		if pw == nil {
			continue
		}
		if !pw.leased.CompareAndSwap(1, 0) {
			p.doubleReleases.Add(1)
			continue
		}
		p.free = append(p.free, pw)
	}
	sort.Slice(p.free, func(i, j int) bool { return p.free[i].id < p.free[j].id })
}

// idle returns the current free-list length.
func (p *pool) idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// takeStarved consumes the starved latch: true if some lease came up
// short since the last call.
func (p *pool) takeStarved() bool {
	return p.starved.CompareAndSwap(1, 0)
}

// offlineSignal unwinds a doomed worker out of the region body back to
// the worker loop, where it is recovered and the pool thread exits.
type offlineSignal struct{}

func (p *pool) workerLoop(tc exec.TC, pw *poolWorker) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(offlineSignal); !ok {
				panic(r)
			}
			pw.dead.Store(1)
		}
	}()
	gen := uint32(0)
	cpu := pw.cpu // current binding; pw.cpu stays the pool-level one
	for {
		for pw.gate.Load() == gen {
			tc.FutexWait(&pw.gate, gen)
		}
		gen = pw.gate.Load()
		if pw.stop.Load() == 1 {
			return
		}
		team := pw.team
		w := team.workers[pw.slot]
		w.tc = tc
		w.pw = pw
		w.gid = int32(pw.id)
		w.enterRegion(team.region)
		// Region placement: re-pin to this region's assigned CPU (the
		// binding policy may place a small team differently than the
		// pool), or migrate deterministically under proc_bind(false).
		if want, ok := team.slotCPU(pw.slot, gen); ok {
			if want != cpu {
				if mv, ok := tc.(exec.Mover); ok {
					mv.MoveCPU(want)
				}
				cpu = want
				pw.curCPU.Store(uint32(cpu + 1))
			}
			w.emitBind(cpu)
		}
		// Forward the fork tree before anything else — even a doomed
		// worker must dispatch its subtree, or the descendants would
		// never wake.
		w.forkChildren()
		if pw.doom.Load() == 1 {
			w.die() // doomed between fork and the first instruction
		}
		w.emitPlain(ompt.ImplicitTaskBegin, 0, 0)
		team.fn(w)
		w.join() // implicit join barrier of the parallel region
		w.emitPlain(ompt.ImplicitTaskEnd, 0, 0)
	}
}

func (p *pool) shutdown(tc exec.TC) {
	for _, pw := range p.workers {
		pw.stop.Store(1)
		pw.gate.Add(1)
		tc.FutexWake(&pw.gate, 1)
	}
	for _, pw := range p.workers {
		p.lib.Join(tc, pw.th)
	}
}

// Pool is an externally owned worker pool several runtimes share: the
// mechanism beneath the multi-tenant service (internal/tenancy). Create
// it once, hand it to each tenant runtime via Options.SharedPool, and
// Shutdown it after every tenant has Closed.
type Pool struct {
	p     *pool
	layer exec.Layer
}

// PoolOptions configures NewSharedPool.
type PoolOptions struct {
	// Workers is the number of leasable pool workers (ids 1..Workers).
	// Each tenant's encountering thread additionally masters its own
	// teams, as in the single-owner runtime.
	Workers int
	// PthreadImpl selects the pthread layer variant beneath the pool
	// (the workers' threads belong to the pool, not to any tenant).
	PthreadImpl pthread.Impl
	// CPUs, when non-nil, gives worker id i its pool-level binding
	// CPUs[i] (index 0 unused). Workers re-pin per region to their
	// team's placement regardless, so nil — unbound until first leased —
	// is the normal choice for a shared pool.
	CPUs []int
}

// NewSharedPool creates the pool's worker threads on layer. The calling
// thread context is only used to spawn them.
func NewSharedPool(tc exec.TC, layer exec.Layer, o PoolOptions) *Pool {
	if o.Workers < 0 {
		o.Workers = 0
	}
	lib := pthread.New(layer, o.PthreadImpl)
	return &Pool{p: newPool(tc, lib, o.Workers, o.CPUs, true), layer: layer}
}

// Workers returns the pool's leasable worker count.
func (sp *Pool) Workers() int { return len(sp.p.workers) }

// Idle returns how many workers are currently unleased.
func (sp *Pool) Idle() int { return sp.p.idle() }

// TakeStarved consumes the pool's starved latch: true if a fork since
// the last call found fewer free workers than it asked for. The tenancy
// service uses it to trigger a work-conserving rebalance.
func (sp *Pool) TakeStarved() bool { return sp.p.takeStarved() }

// DoubleReleases returns how many lease releases the CAS guard dropped
// as duplicates. Zero on a correct runtime; tests assert it.
func (sp *Pool) DoubleReleases() int64 { return sp.p.doubleReleases.Load() }

// OfflineCurrent models CPU cpu going away mid-run for a shared pool:
// every pool worker whose current (per-region) binding is cpu is doomed
// and leaves its team at the next safe point. Unlike Runtime.OfflineCPU
// it keys on the live binding rather than the pool-level one, because a
// shared pool's workers are re-pinned into whatever tenant shard leases
// them. It returns how many workers were doomed.
func (sp *Pool) OfflineCurrent(cpu int) int {
	n := 0
	for _, pw := range sp.p.workers {
		if pw.curCPU.Load() == uint32(cpu+1) && pw.dead.Load() == 0 && pw.doom.CompareAndSwap(0, 1) {
			n++
		}
	}
	return n
}

// Shutdown stops and joins every pool worker. Call it after all tenant
// runtimes have Closed (a Close with a shared pool releases the
// tenant's leases but leaves the pool running).
func (sp *Pool) Shutdown(tc exec.TC) { sp.p.shutdown(tc) }
