// Package komp is the public API of the "Paths to OpenMP in the Kernel"
// reproduction (Ma et al., SC '21): an OpenMP-style parallel runtime for
// Go, plus a deterministic simulation of the paper's three paths for
// bringing that runtime into an operating system kernel — RTK (runtime
// in kernel), PIK (process in kernel) and CCK (custom compilation for
// kernel) — and the harness that regenerates every figure of the paper's
// evaluation.
//
// Two ways to use it:
//
//   - As a parallelism library: komp.New(threads) gives an OpenMP-style
//     runtime over real goroutines (parallel regions, worksharing loops
//     with static/dynamic/guided schedules, barriers, reductions,
//     critical sections, tasks).
//
//   - As a systems laboratory: komp.NewEnvironment constructs one of the
//     paper's execution environments over the discrete-event simulator,
//     and komp.RunFigure regenerates the paper's tables and figures.
package komp

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/interweaving/komp/internal/bench"
	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/device"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/nas"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/places"
	"github.com/interweaving/komp/internal/tenancy"
)

// --- The real-execution OpenMP API ---

// Worker is a thread's view of a parallel region; it carries every
// OpenMP construct (For, Barrier, Critical, Reduce, Task, ...).
type Worker = omp.Worker

// ForOpt configures a worksharing loop.
type ForOpt = omp.ForOpt

// TaskloopOpt configures a task-generating loop (Worker.Taskloop).
type TaskloopOpt = omp.TaskloopOpt

// TaskOpt carries the clauses of a task construct (Worker.TaskWith):
// depend, final, and the if clause's undeferred path.
type TaskOpt = omp.TaskOpt

// Dep is one depend clause item; build them with In, Out and InOut.
type Dep = omp.Dep

// In returns a depend(in: *addr) clause item.
func In(addr any) Dep { return omp.In(addr) }

// Out returns a depend(out: *addr) clause item.
func Out(addr any) Dep { return omp.Out(addr) }

// InOut returns a depend(inout: *addr) clause item.
func InOut(addr any) Dep { return omp.InOut(addr) }

// Schedule kinds for worksharing loops. Affinity is the locality-aware
// static schedule: the same block math as Static, but blocks are dealt
// by each worker's rank in place (CPU) order, so the chunk-to-CPU
// mapping survives thread-number permutations across regions and
// first-touched pages stay local.
const (
	Static   = omp.Static
	Dynamic  = omp.Dynamic
	Guided   = omp.Guided
	Affinity = omp.Affinity
)

// ProcBind is an OMP_PROC_BIND-style thread binding policy.
type ProcBind = places.Bind

// Binding policies for WithProcBind.
const (
	// BindFalse leaves workers unmanaged (free to migrate).
	BindFalse = places.BindFalse
	// BindMaster packs the team onto the master's place.
	BindMaster = places.BindMaster
	// BindClose places workers on consecutive places from the master's.
	BindClose = places.BindClose
	// BindSpread spaces workers evenly across the place partition.
	BindSpread = places.BindSpread
)

// Reduction operators.
const (
	ReduceSum  = omp.ReduceSum
	ReduceProd = omp.ReduceProd
	ReduceMax  = omp.ReduceMax
	ReduceMin  = omp.ReduceMin
)

// CancelKind names the construct a cancellation request applies to
// (Worker.Cancel / Worker.CancellationPoint).
type CancelKind = omp.CancelKind

// Cancellable construct kinds.
const (
	CancelParallel  = omp.CancelParallel
	CancelFor       = omp.CancelFor
	CancelSections  = omp.CancelSections
	CancelTaskgroup = omp.CancelTaskgroup
)

// OMP is an OpenMP-style runtime running on real goroutines — either a
// standalone one owning its worker pool (New), or one tenant's handle on
// a shared multi-tenant Service (New with WithTenant).
type OMP struct {
	layer *exec.RealLayer
	rt    *omp.Runtime
	tc    exec.TC
	tn    *tenancy.Tenant // non-nil for tenant handles
}

// config is what Options apply to: the runtime's ICVs plus the komp-
// level choices (which service to join) that have no omp.Options field.
type config struct {
	omp.Options
	svc *Service
}

// Option configures New.
type Option func(*config)

// WithPlaces sets the OMP_PLACES-style place partition the binding
// policy resolves against: an abstract name (threads, cores, sockets)
// with an optional (n) count, or an explicit interval list such as
// "{0:4},{4:4}". New panics on a spec the pool's CPUs cannot satisfy.
func WithPlaces(spec string) Option {
	return func(o *config) { o.PlacesSpec = spec }
}

// WithProcBind sets the OMP_PROC_BIND policy used to place each team's
// workers over the place partition.
func WithProcBind(policy ProcBind) Option {
	return func(o *config) {
		o.ProcBind = policy
		if policy != places.BindFalse {
			o.Bind = true
		}
	}
}

// WithMaxActiveLevels sets the OMP_MAX_ACTIVE_LEVELS ICV: how many
// nested parallel regions may be active (team size > 1) at once. The
// default is 1 — an inner Worker.Parallel serializes. With n >= 2 an
// inner region forks a real inner team leased from the shared pool;
// Worker.Level, Worker.AncestorThreadNum and Worker.TeamSize expose the
// resulting hierarchy.
func WithMaxActiveLevels(n int) Option {
	return func(o *config) { o.MaxActiveLevels = n }
}

// WithNumThreadsList sets per-nesting-level team sizes, the comma-list
// form of OMP_NUM_THREADS ("8,4"): entry i sizes regions at nesting
// level i+1, the last entry covering all deeper levels.
func WithNumThreadsList(sizes ...int) Option {
	return func(o *config) {
		if len(sizes) > 0 {
			o.DefaultThreads = sizes[0]
			o.NumThreadsList = append([]int(nil), sizes...)
		}
	}
}

// WithCancellation enables the cancel constructs (the OMP_CANCELLATION
// ICV): Worker.Cancel and Worker.CancellationPoint become operative and
// every scheduling point — barriers, loop chunk claims, task execution —
// checks for an active cancellation. Off by default; when off, Cancel
// returns false and the runtime's fast paths are unchanged.
func WithCancellation() Option {
	return func(o *config) { o.Cancellation = true }
}

// WithDeadline arms a deadline on every parallel region
// (KOMP_REGION_DEADLINE): a region still running after d is cancelled
// exactly as if a thread had executed Cancel(CancelParallel), so the
// region joins with a partial result instead of running (or hanging)
// on. Implies WithCancellation.
func WithDeadline(d time.Duration) Option {
	return func(o *config) {
		o.Cancellation = true
		o.RegionDeadlineNS = int64(d)
	}
}

// New creates a runtime with the given pool size (0 means GOMAXPROCS).
// Close it when done. With WithTenant the handle joins a Service
// instead: threads caps this tenant's team sizes, workers are leased
// from the shared pool, and submissions pass admission control.
func New(threads int, opts ...Option) *OMP {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	var c config
	c.Options = omp.Options{MaxThreads: threads, Bind: true}
	for _, apply := range opts {
		apply(&c)
	}
	if c.svc != nil {
		// Tenant handle: the service assigns the pool, shard and tenant
		// id, then the user's options are re-applied on top.
		tn := c.svc.svc.Tenant(threads, func(o *omp.Options) {
			var tc config
			tc.Options = *o
			for _, apply := range opts {
				apply(&tc)
			}
			tc.Tenant = o.Tenant // the tenant id is not user-overridable
			tc.SharedPool = o.SharedPool
			*o = tc.Options
		})
		return &OMP{layer: c.svc.layer, rt: tn.Runtime(), tc: c.svc.layer.TC(), tn: tn}
	}
	layer := exec.NewRealLayer(threads)
	rt := omp.New(layer, c.Options)
	return &OMP{layer: layer, rt: rt, tc: layer.TC()}
}

// Parallel runs fn on a team of n threads (0 = all). It returns after
// the implicit join barrier. On a tenant handle the submission passes
// admission control first — it may park behind the service's queue, and
// a shed submission panics; use Submit to handle rejection.
func (o *OMP) Parallel(n int, fn func(*Worker)) {
	if err := o.Submit(n, fn); err != nil {
		panicShed(err)
	}
}

func panicShed(err error) {
	panic(fmt.Sprintf("komp: %v (use Submit to handle backpressure)", err))
}

// Submit runs fn like Parallel but surfaces admission control: on a
// tenant handle of a saturated Service it returns ErrRejected without
// running fn. On a standalone runtime it never fails.
func (o *OMP) Submit(n int, fn func(*Worker)) error {
	if o.tn != nil {
		return o.tn.Parallel(o.tc, n, fn)
	}
	o.rt.Parallel(o.tc, n, fn)
	return nil
}

// ParallelFor runs a worksharing loop over [lo, hi) on a team of n
// threads (0 = all). Like Parallel it passes admission control on a
// tenant handle and panics when shed. The region carries the bounds, so
// a repeated ParallelFor allocates nothing.
func (o *OMP) ParallelFor(n, lo, hi int, opt ForOpt, body func(i int)) {
	if o.tn == nil {
		o.rt.ParallelFor(o.tc, n, lo, hi, opt, body)
	} else if err := o.tn.ParallelFor(o.tc, n, lo, hi, opt, body); err != nil {
		panicShed(err)
	}
}

// Threads returns the pool size (for a tenant handle: its team cap).
func (o *OMP) Threads() int { return o.rt.MaxThreads() }

// Close shuts the worker pool down. A tenant handle's Close only
// releases the tenant's cached leases; the Service owns the pool.
func (o *OMP) Close() {
	if o.tn != nil {
		o.tn.Close(o.tc)
		return
	}
	o.rt.Close(o.tc)
}

// --- The device offload API ---

// Map is one map clause entry of a target construct: a host object (a
// slice, or a pointer to a scalar/struct) and its map-type.
type Map = device.Map

// Kernel is a `target teams distribute` region: a loop of N iterations
// dealt in blocks over a league of teams on the device's compute units.
type Kernel = device.Kernel

// Block is one distribute block as a kernel body sees it.
type Block = device.Block

// TargetResult is a completed kernel launch: modeled device time, block
// and re-deal counts, and the league reduction value.
type TargetResult = device.Result

// ErrDeviceLost reports that every compute unit went offline before a
// kernel could finish.
var ErrDeviceLost = device.ErrDeviceLost

// MapTo and MapAlloc build map clause entries (map(to: x) and
// map(alloc: x)): what the device is charged to move and to hold.
func MapTo(obj any) Map    { return device.MapTo(obj) }
func MapAlloc(obj any) Map { return device.MapAlloc(obj) }

// WithDevice sets the accelerator geometry target constructs offload to
// (the KOMP_DEVICE ICV): cus compute units of lanes SIMT lanes each.
// Without it the runtime models a default 8×32 device on first use.
func WithDevice(cus, lanes int) Option {
	return func(o *config) { o.DeviceCUs, o.DeviceLanes = cus, lanes }
}

// WithDefaultDevice sets the OMP_DEFAULT_DEVICE ICV: the device number
// target constructs offload to. A negative value selects the host
// fallback — target regions run serially on the encountering thread.
func WithDefaultDevice(n int) Option {
	return func(o *config) { o.DefaultDevice = n }
}

// Target executes a kernel on the default device (#pragma omp target
// teams distribute map(...)): the map clauses are entered, the league
// launched, and the maps released in reverse — mappings an enclosing
// TargetData holds move no data.
func (o *OMP) Target(maps []Map, k Kernel) (TargetResult, error) {
	return o.rt.Target(o.tc, maps, k)
}

// TargetData brackets body with a structured device mapping (#pragma
// omp target data): Target calls inside find the data present and
// transfer nothing — the hoisting pattern that pays off when several
// kernels share operands.
func (o *OMP) TargetData(maps []Map, body func()) {
	o.rt.TargetData(o.tc, maps, body)
}

// TargetEnterData / TargetExitData are the unstructured mapping
// lifetime (#pragma omp target enter/exit data): mappings created here
// persist until the matching exit drops the last reference.
func (o *OMP) TargetEnterData(maps ...Map) { o.rt.TargetEnterData(o.tc, maps...) }
func (o *OMP) TargetExitData(maps ...Map)  { o.rt.TargetExitData(o.tc, maps...) }

// --- The multi-tenant service API ---

// ErrRejected is returned by OMP.Submit when the Service's admission
// control sheds the submission (KOMP_TENANCY_QUEUE full).
var ErrRejected = tenancy.ErrRejected

// Service is a multi-tenant runtime service: one shared worker pool
// that many independent OMP handles (New with WithTenant) lease teams
// from, with admission control, optional place sharding, and
// work-conserving rebalance between tenants. Close it after every
// tenant handle has Closed.
type Service struct {
	layer *exec.RealLayer
	boot  exec.TC
	svc   *tenancy.Service
}

// ServiceConfig configures NewService.
type ServiceConfig struct {
	// Workers is the shared pool size (0 means GOMAXPROCS-1).
	Workers int
	// MaxInflight caps concurrently running regions across all tenants
	// (0 disables admission control).
	MaxInflight int
	// QueueDepth and Reject are the admission queue bound and saturation
	// policy; both are overridden by KOMP_TENANCY_QUEUE when set.
	QueueDepth int
	Reject     bool
	// Shards deals tenants onto disjoint blocks of the machine's places
	// round-robin (0 or 1: all tenants share the full machine).
	Shards int
}

// NewService creates a multi-tenant service and its shared worker pool.
func NewService(cfg ServiceConfig) (*Service, error) {
	ncpu := runtime.GOMAXPROCS(0)
	workers := cfg.Workers
	if workers <= 0 {
		workers = ncpu - 1
		if workers < 1 {
			workers = 1
		}
	}
	tcfg := tenancy.Config{
		Workers:     workers,
		MaxInflight: cfg.MaxInflight,
		QueueDepth:  cfg.QueueDepth,
		Shards:      cfg.Shards,
		Base:        omp.Options{Bind: true},
	}
	if cfg.Reject {
		tcfg.Policy = tenancy.PolicyReject
	}
	if err := tcfg.Env(os.LookupEnv); err != nil {
		return nil, err
	}
	layer := exec.NewRealLayer(ncpu)
	if tcfg.Shards > 1 {
		part, err := places.Parse("", places.Flat(ncpu))
		if err != nil {
			return nil, err
		}
		tcfg.Places = part
	}
	boot := layer.TC()
	return &Service{layer: layer, boot: boot, svc: tenancy.New(boot, layer, tcfg)}, nil
}

// WithTenant makes New join svc as a new tenant instead of creating a
// standalone runtime: the handle's regions lease workers from the
// service's shared pool and pass its admission control.
func WithTenant(svc *Service) Option {
	return func(o *config) { o.svc = svc }
}

// ServiceStats is a snapshot of a Service's admission counters.
type ServiceStats = tenancy.Stats

// Stats returns a snapshot of the service's admission counters.
func (s *Service) Stats() ServiceStats { return s.svc.Stats() }

// Close shuts down every tenant runtime and the shared pool.
func (s *Service) Close() { s.svc.Shutdown(s.boot) }

// --- The simulation API ---

// Machine names.
const (
	MachinePHI   = "PHI"
	Machine8XEON = "8XEON"
)

// NewMachine returns one of the paper's machine models.
func NewMachine(name string) (*machine.Machine, error) {
	m, err := machine.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("komp: %w", err)
	}
	return m, nil
}

// Environment kinds (the paper's execution environments).
const (
	EnvLinux       = core.Linux
	EnvRTK         = core.RTK
	EnvPIK         = core.PIK
	EnvCCK         = core.CCK
	EnvLinuxAutoMP = core.LinuxAutoMP
)

// EnvConfig configures an environment; see core.Config.
type EnvConfig = core.Config

// Environment is a constructed simulated environment.
type Environment = core.Env

// NewEnvironment builds one of the paper's execution environments over
// the deterministic simulator.
func NewEnvironment(cfg EnvConfig) *Environment { return core.New(cfg) }

// NASBenchmarks returns the names of the modeled NAS benchmarks.
func NASBenchmarks() []string {
	var out []string
	for _, s := range nas.Specs() {
		out = append(out, s.Name)
	}
	return out
}

// RunNAS runs one NAS benchmark model in an environment, returning the
// virtual seconds it took.
func RunNAS(env *Environment, name string, threads int) (float64, error) {
	s := nas.SpecByName(name)
	if s == nil {
		return 0, fmt.Errorf("komp: unknown NAS benchmark %q", name)
	}
	res, err := nas.RunModel(env, s, threads)
	return res.Seconds, err
}

// FigureIDs returns the regenerable figure ids in paper order.
func FigureIDs() []string {
	var out []string
	for _, f := range bench.Figures() {
		out = append(out, f.ID)
	}
	return out
}

// FigureOptions tunes figure regeneration.
type FigureOptions = bench.Options

// RunFigure regenerates one of the paper's figures ("fig6".."fig15") as
// a text table on w.
func RunFigure(id string, w io.Writer, opt FigureOptions) error {
	f, ok := bench.ByID(id)
	if !ok {
		return fmt.Errorf("komp: unknown figure %q (see FigureIDs)", id)
	}
	return f.Run(w, opt)
}
