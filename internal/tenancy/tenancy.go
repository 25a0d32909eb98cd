// Package tenancy is the multi-tenant policy layer over the OpenMP
// runtime: one shared worker pool (omp.Pool), many independent tenants,
// each with a komp-style handle, concurrently submitting parallel
// regions and task DAGs. It converts the runtime from a library one
// caller owns into a service — the ROADMAP's production-scale shape,
// where thousands of clients share one machine's worth of workers.
//
// The service adds three policies the single-owner runtime never
// needed, all built from mechanisms that already exist:
//
//   - Admission control: a bounded queue with backpressure
//     (KOMP_TENANCY_QUEUE). At most MaxInflight regions run at once;
//     excess submitters park on a futex gate (reported to the real
//     layer's stall watchdog as idle, not stalled) up to QueueDepth
//     deep, beyond which submissions are rejected.
//
//   - Placement sharding: tenants are dealt disjoint sub-partitions of
//     the place set (places.Partition.Shard), so their teams land on
//     disjoint sockets by construction instead of interleaving across
//     the machine and serializing on shared CPUs.
//
//   - Work-conserving rebalance: when a fork finds the pool short
//     (starved latch), idle tenants' cached hot teams are drained and
//     their leases returned, so parked capacity flows to whoever is
//     busy. The hot-team caches are claim-safe — a drained team is
//     owned exclusively by the drainer — so rebalance never races a
//     tenant waking up.
//
// Isolation comes from the structure: each tenant is a full
// omp.Runtime — its own cancel flags, deques, hot-team caches, region
// ids and OMPT tenant id — sharing only the leased workers, whose
// per-region state is reset at every fork.
package tenancy

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/places"
)

// Policy selects what a submission does when the service is saturated.
type Policy int

// Saturation policies.
const (
	// PolicyPark (the default): park in the admission queue until a
	// running region completes, rejecting only when the queue itself is
	// full (QueueDepth waiters).
	PolicyPark Policy = iota
	// PolicyReject: reject immediately whenever MaxInflight regions are
	// already running — no queueing, pure load shedding.
	PolicyReject
)

func (p Policy) String() string {
	if p == PolicyReject {
		return "reject"
	}
	return "park"
}

// ErrRejected is returned by Tenant.Parallel when admission control
// sheds the submission (queue full, or PolicyReject while saturated).
var ErrRejected = errors.New("tenancy: region rejected by admission control")

// Config configures a Service.
type Config struct {
	// Workers is the shared pool's leasable worker count (omp.Pool).
	Workers int
	// MaxInflight caps how many admitted regions may run concurrently.
	// 0 disables admission control: every submission runs immediately
	// and the queue fields are unused.
	MaxInflight int
	// QueueDepth bounds the admission queue under PolicyPark: at most
	// this many submissions park awaiting admission; further ones are
	// rejected (the KOMP_TENANCY_QUEUE depth). Default 64.
	QueueDepth int
	// Policy is the saturation policy (KOMP_TENANCY_QUEUE's
	// ",park"/",reject" suffix).
	Policy Policy
	// Shards deals tenants round-robin onto disjoint sub-partitions of
	// Places (tenant i gets Places.Shard(i mod Shards, Shards)). 0 or 1
	// leaves every tenant on the full partition.
	Shards int
	// Places is the place partition sharding splits (required when
	// Shards > 1; typically the sockets partition of the machine).
	Places *places.Partition
	// Base is the template for each tenant's runtime options: pthread
	// impl, spine, ICVs. The service overrides MaxThreads, Tenant,
	// SharedPool and — when sharding — Places per tenant.
	Base omp.Options
}

// ParseQueue parses a KOMP_TENANCY_QUEUE value: "depth", "depth,park"
// or "depth,reject" (depth >= 0).
func ParseQueue(s string) (depth int, pol Policy, err error) {
	parts := strings.SplitN(strings.TrimSpace(s), ",", 2)
	depth, err = strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil || depth < 0 {
		return 0, 0, fmt.Errorf("tenancy: KOMP_TENANCY_QUEUE=%q: want depth[,park|reject] with a non-negative depth", s)
	}
	if len(parts) == 2 {
		switch strings.TrimSpace(strings.ToLower(parts[1])) {
		case "park":
			pol = PolicyPark
		case "reject":
			pol = PolicyReject
		default:
			return 0, 0, fmt.Errorf("tenancy: KOMP_TENANCY_QUEUE=%q: unknown policy %q (want park or reject)", s, parts[1])
		}
	}
	return depth, pol, nil
}

// Env reads the service's environment variables (KOMP_TENANCY_QUEUE)
// from a lookup function, the same plumbing shape as omp.Options.Env.
func (c *Config) Env(lookup func(string) (string, bool)) error {
	if v, ok := lookup("KOMP_TENANCY_QUEUE"); ok {
		depth, pol, err := ParseQueue(v)
		if err != nil {
			return err
		}
		c.QueueDepth, c.Policy = depth, pol
	}
	return nil
}

// Service is the shared-pool scheduler: it owns the worker pool, admits
// regions, and rebalances leases between tenants.
type Service struct {
	layer exec.Layer
	pool  *omp.Pool
	cfg   Config

	// gate is the admission futex: parked submitters wait on its
	// generation; every region completion bumps it and wakes all, and
	// the woken re-contend under mu (deterministic on the simulator).
	gate exec.Word

	mu       sync.Mutex
	inflight int
	queued   int
	tenants  []*Tenant

	// Counters (service-lifetime totals).
	admitted   atomic.Int64
	parked     atomic.Int64
	rejected   atomic.Int64
	rebalances atomic.Int64
}

// New creates a service and its shared worker pool on layer; tc is only
// used to spawn the pool's worker threads.
func New(tc exec.TC, layer exec.Layer, cfg Config) *Service {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Shards > 1 && cfg.Places == nil {
		panic("tenancy: Config.Shards set without Config.Places")
	}
	if cfg.Places != nil && cfg.Shards > cfg.Places.NumPlaces() {
		// More shards than places: shrink to what the machine can
		// actually partition (a 1-place machine just shares).
		cfg.Shards = cfg.Places.NumPlaces()
	}
	pool := omp.NewSharedPool(tc, layer, omp.PoolOptions{
		Workers:     cfg.Workers,
		PthreadImpl: cfg.Base.PthreadImpl,
	})
	return &Service{layer: layer, pool: pool, cfg: cfg}
}

// Pool returns the shared worker pool.
func (s *Service) Pool() *omp.Pool { return s.pool }

// Tenant creates a new tenant: an independent runtime (own ICVs, cancel
// flags, deques, hot-team caches, OMPT tenant id) leasing workers from
// the shared pool. threads caps the tenant's team sizes; mod functions
// may adjust the tenant's options before the runtime is built.
func (s *Service) Tenant(threads int, mod ...func(*omp.Options)) *Tenant {
	s.mu.Lock()
	id := len(s.tenants) + 1
	s.mu.Unlock()

	opts := s.cfg.Base
	opts.MaxThreads = threads
	opts.Tenant = int32(id)
	opts.SharedPool = s.pool
	if s.cfg.Shards > 1 {
		// Place-partition sharding: tenant i's teams are confined to
		// shard i mod n — disjoint sockets by construction.
		opts.Places = s.cfg.Places.Shard((id-1)%s.cfg.Shards, s.cfg.Shards)
		opts.PlacesSpec = ""
		if opts.ProcBind == places.BindDefault {
			opts.ProcBind = places.BindClose
		}
		opts.Bind = true
	} else if opts.Places == nil && s.cfg.Places != nil {
		opts.Places = s.cfg.Places
	}
	for _, m := range mod {
		m(&opts)
	}
	t := &Tenant{ID: id, svc: s, rt: omp.New(s.layer, opts)}
	s.mu.Lock()
	s.tenants = append(s.tenants, t)
	s.mu.Unlock()
	return t
}

// Tenant is one client's handle on the service.
type Tenant struct {
	ID  int
	svc *Service
	rt  *omp.Runtime
	// active counts this tenant's submissions in flight (parked or
	// running): the rebalance skips tenants with active > 0.
	active atomic.Int32
}

// Runtime returns the tenant's runtime, for constructs beyond Parallel.
func (t *Tenant) Runtime() *omp.Runtime { return t.rt }

// Parallel submits one parallel region through admission control and
// runs it to completion (including the implicit join barrier) on the
// tenant's runtime. It returns ErrRejected — without running fn — when
// the service sheds the submission.
func (t *Tenant) Parallel(tc exec.TC, n int, fn func(*omp.Worker)) error {
	if !t.enter(tc) {
		return ErrRejected
	}
	t.rt.Parallel(tc, n, fn)
	t.exit(tc)
	return nil
}

// ParallelFor submits a combined parallel-for region (see
// omp.Runtime.ParallelFor) through the same admission control.
func (t *Tenant) ParallelFor(tc exec.TC, n, lo, hi int, opt omp.ForOpt, body func(i int)) error {
	if !t.enter(tc) {
		return ErrRejected
	}
	t.rt.ParallelFor(tc, n, lo, hi, opt, body)
	t.exit(tc)
	return nil
}

// enter passes one submission through admission control; false means it
// was shed. A true return must be paired with exit after the region.
func (t *Tenant) enter(tc exec.TC) bool {
	s := t.svc
	t.active.Add(1)
	if !s.admit(tc) {
		t.active.Add(-1)
		s.rejected.Add(1)
		return false
	}
	s.admitted.Add(1)
	return true
}

func (t *Tenant) exit(tc exec.TC) {
	t.active.Add(-1)
	t.svc.leave(tc)
}

// Close releases the tenant's cached teams and leases back to the pool.
// The shared pool keeps running; Service.Shutdown stops it.
func (t *Tenant) Close(tc exec.TC) { t.rt.Close(tc) }

// admit blocks (or rejects) until the submission may run.
func (s *Service) admit(tc exec.TC) bool {
	if s.cfg.MaxInflight <= 0 {
		s.mu.Lock()
		s.inflight++
		s.mu.Unlock()
		return true
	}
	s.mu.Lock()
	for s.inflight >= s.cfg.MaxInflight {
		if s.cfg.Policy == PolicyReject || s.queued >= s.cfg.QueueDepth {
			s.mu.Unlock()
			return false
		}
		s.queued++
		s.parked.Add(1)
		gen := s.gate.Load()
		s.mu.Unlock()
		// Park awaiting admission. The park is reported to the layer's
		// stall watchdog as idle (IdlePark): a saturated queue can sit
		// still for a whole watchdog period without being a stall.
		done := s.idlePark()
		tc.FutexWait(&s.gate, gen)
		done()
		s.mu.Lock()
		s.queued--
	}
	s.inflight++
	s.mu.Unlock()
	return true
}

// leave retires a completed region: wakes the admission queue and, if
// some fork meanwhile found the pool short, rebalances idle tenants'
// leases back to it.
func (s *Service) leave(tc exec.TC) {
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
	s.gate.Add(1)
	tc.FutexWake(&s.gate, -1)
	if s.pool.TakeStarved() {
		s.rebalance()
	}
}

// rebalance is the work-conserving path: every tenant with no
// submission in flight has its cached hot teams drained and their
// worker leases returned to the pool, so a busy tenant's next fork
// leases them instead of shrinking. The caches are claim-safe, so a
// tenant waking up mid-drain just rebuilds — correctness never depends
// on the idleness heuristic.
func (s *Service) rebalance() {
	s.mu.Lock()
	tenants := append([]*Tenant(nil), s.tenants...)
	s.mu.Unlock()
	for _, tn := range tenants {
		if tn.active.Load() == 0 {
			tn.rt.ReleaseCachedTeams()
		}
	}
	s.rebalances.Add(1)
}

func (s *Service) idlePark() func() {
	if ip, ok := s.layer.(exec.IdleParker); ok {
		return ip.IdlePark()
	}
	return func() {}
}

// Stats is a snapshot of the service's counters.
type Stats struct {
	Admitted   int64 // regions that ran
	Parked     int64 // submissions that waited in the admission queue
	Rejected   int64 // submissions shed by backpressure
	Rebalances int64 // idle-tenant lease reclaims
	Inflight   int   // regions running now
	Queued     int   // submissions parked now
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Admitted:   s.admitted.Load(),
		Parked:     s.parked.Load(),
		Rejected:   s.rejected.Load(),
		Rebalances: s.rebalances.Load(),
		Inflight:   s.inflight,
		Queued:     s.queued,
	}
}

// Shutdown closes every tenant's runtime (releasing cached leases) and
// stops the shared pool's workers. On the simulator it must run before
// the layer's Run can return.
func (s *Service) Shutdown(tc exec.TC) {
	s.mu.Lock()
	tenants := append([]*Tenant(nil), s.tenants...)
	s.mu.Unlock()
	for _, tn := range tenants {
		tn.rt.Close(tc)
	}
	s.pool.Shutdown(tc)
}
