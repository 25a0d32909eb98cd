// Package core assembles the paper's four execution environments — Linux
// user-level (the baseline), RTK, PIK, and the CCK kernel target — from
// the substrate packages: a machine model, a simulator with the
// environment's noise model, an execution layer with the environment's
// primitive cost table, an address space with the environment's paging
// and placement policies, and the memory-overhead model that converts a
// region's memory profile into effective compute cost.
//
// This package is the home of the paper's primary contribution in this
// reproduction: the three paths to OpenMP in the kernel, expressed as
// differences in what lies beneath an unchanged runtime (RTK, PIK) or an
// alternative compilation pipeline (CCK).
package core

import (
	"fmt"
	"sync"

	"github.com/interweaving/komp/internal/cck"
	"github.com/interweaving/komp/internal/device"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/linuxsim"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/memsim"
	"github.com/interweaving/komp/internal/nautilus"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/places"
	"github.com/interweaving/komp/internal/pthread"
	"github.com/interweaving/komp/internal/rtk"
	"github.com/interweaving/komp/internal/sim"
	"github.com/interweaving/komp/internal/virgil"
)

// Kind identifies an execution environment.
type Kind int

// Environment kinds.
const (
	// Linux is the user-level baseline: stock OpenMP on the Linux-
	// analogue (demand paging, futex syscalls, OS noise).
	Linux Kind = iota
	// RTK is runtime-in-kernel: the OpenMP runtime over the Nautilus
	// pthread compatibility layer, statics in the boot image.
	RTK
	// PIK is process-in-kernel: the unmodified user-level stack behind
	// the emulated Linux syscall ABI, inside the kernel.
	PIK
	// CCK is custom-compilation-for-kernel: AutoMP-compiled tasks on
	// kernel-level VIRGIL.
	CCK
	// LinuxAutoMP is the AutoMP pipeline targeting user-level Linux
	// (user-level VIRGIL) — the middle column of Fig. 11.
	LinuxAutoMP
)

// environment is one row of the environment table: the mechanisms an
// execution environment is assembled from. The paper's §6.2 explains the
// kernel paths' gains with exactly these: no demand paging and big
// identity-mapped pages (inKernel), statics in the boot image, lazy FPU,
// the IST trampoline, the pthread layer and the primitive cost table.
type environment struct {
	name     string
	inKernel bool // a Nautilus kernel beneath, instead of the Linux analogue
	costs    func(*machine.Machine) exec.Costs
	// autoMP runs programs through the AutoMP pipeline on VIRGIL rather
	// than through an OpenMP runtime.
	autoMP bool
	// omp: the environment has an OpenMP runtime; rtkPort: it is built
	// through the §3 port (rtk.NewPort).
	omp, rtkPort bool
	// bootImageStatics links large static arrays into the (pre-placed,
	// identity-mapped) kernel boot image.
	bootImageStatics bool
	// nptl forces the runtime onto the NPTL pthread variant.
	nptl                   bool
	lazyFPU, istTrampoline bool
	// buddyPages: PIK binaries see a slightly coarser effective page size
	// than the 1 GiB identity map — the emulated mmap hands out buddy
	// blocks, so translations behave like 2 MiB pages (without first
	// touch, which already uses 2 MiB pages).
	buddyPages bool
}

// environments is the table of environments, indexed by Kind: the one
// place that says which environment has which mechanism.
var environments = [...]environment{
	Linux: {name: "linux-omp", costs: linuxsim.Costs, omp: true, nptl: true},
	RTK: {name: "rtk", inKernel: true, costs: kernelCosts, omp: true, rtkPort: true,
		// rtk.NewPort sets LazyFPU too, but only once OMPRuntime runs;
		// kernel work before that already saves FPU state lazily.
		bootImageStatics: true, lazyFPU: true},
	PIK: {name: "pik", inKernel: true, costs: pikCosts, omp: true, nptl: true,
		lazyFPU: true, istTrampoline: true, buddyPages: true},
	CCK:         {name: "nk-automp", inKernel: true, costs: kernelCosts, autoMP: true, bootImageStatics: true},
	LinuxAutoMP: {name: "linux-automp", costs: linuxsim.Costs, autoMP: true, omp: true, nptl: true},
}

// row returns the kind's environment, or nil for an unknown kind.
func (k Kind) row() *environment {
	if k < 0 || int(k) >= len(environments) {
		return nil
	}
	return &environments[k]
}

func (k Kind) String() string {
	if r := k.row(); r != nil {
		return r.name
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// InKernel reports whether the environment executes in kernel mode.
func (k Kind) InKernel() bool {
	r := k.row()
	return r != nil && r.inKernel
}

// Config tunes environment construction.
type Config struct {
	Machine *machine.Machine
	Kind    Kind
	Seed    int64
	// Threads is the worker count experiments will use (drives the
	// first-touch decision on 8XEON, §6.3: 24+ cores).
	Threads int
	// BootImageBytes models statics linked into the kernel image; the
	// environments without boot-image statics ignore it.
	BootImageBytes int64
	// ForceImmediate forces the kernel environments onto immediate
	// (allocation-time local) placement regardless of thread count —
	// the baseline of the §6.3 first-touch ablation.
	ForceImmediate bool
	// OMP carries the OpenMP ICVs of the runtime OMPRuntime builds. The
	// environment decides the rest itself and overwrites whatever is set
	// here: MaxThreads (Threads), Bind, Places (PlacesSpec parsed over
	// the machine's topology), Spine, Device, and PthreadImpl outside RTK
	// (RTK takes PTE or Custom from here, Custom by default).
	OMP omp.Options
	// SimEQ selects the simulator's event-queue algorithm (zero value:
	// the wheel; the heap is the differential-testing baseline).
	SimEQ sim.EQAlgo
	// Spine, if non-nil, is threaded through every layer the environment
	// assembles — the exec layer (thread events), the OpenMP runtime or
	// VIRGIL, and the kernel facilities — so one tool observes the whole
	// stack.
	Spine *ompt.Spine
}

// Env is a constructed execution environment.
type Env struct {
	Kind    Kind
	Machine *machine.Machine
	Layer   *exec.SimLayer
	// Kernel is non-nil for in-kernel environments.
	Kernel *nautilus.Kernel
	// AS is the environment's application address space.
	AS *memsim.AddressSpace
	// PageSize is the effective application page size.
	PageSize int64
	// BootImageStatics: large static arrays live in the (pre-placed,
	// identity-mapped) kernel boot image.
	BootImageStatics bool
	// FirstTouch reports the active NUMA placement policy.
	FirstTouch bool
	// AutoMP: programs run through the AutoMP pipeline on VIRGIL, not
	// through an OpenMP runtime.
	AutoMP bool

	row     *environment
	threads int
	omp     omp.Options
	spine   *ompt.Spine

	devMu sync.Mutex
	dev   *device.Dev
}

// Spine returns the environment's instrumentation spine (nil when
// disabled).
func (e *Env) Spine() *ompt.Spine { return e.spine }

// Device returns the environment's accelerator, built lazily over the
// machine's attached device topology (machine.WithDevice), or nil for a
// host-only machine. All runtimes constructed from this environment
// share the one instance, so its map table and CU busy state persist
// across regions the way a real device's do.
func (e *Env) Device() *device.Dev {
	if e.Machine.Dev == nil {
		return nil
	}
	e.devMu.Lock()
	defer e.devMu.Unlock()
	if e.dev == nil {
		e.dev = device.New(e.Machine.Dev, 0, e.spine)
	}
	return e.dev
}

// New constructs an environment.
func New(cfg Config) *Env {
	m := cfg.Machine
	if m == nil {
		panic("core: environment without machine")
	}
	row := cfg.Kind.row()
	if row == nil {
		panic(fmt.Sprintf("core: unknown environment kind %d", cfg.Kind))
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = m.NumCPUs()
	}
	e := &Env{Kind: cfg.Kind, Machine: m, BootImageStatics: row.bootImageStatics, AutoMP: row.autoMP,
		row: row, threads: threads, omp: cfg.OMP, spine: cfg.Spine}
	if row.nptl {
		e.omp.PthreadImpl = pthread.NPTL
	}

	if !row.inKernel {
		e.Layer = exec.NewSimLayer(linuxsim.NewSimEQ(m, cfg.Seed, cfg.SimEQ), row.costs(m))
		e.AS = linuxsim.NewAddressSpace(m)
		e.PageSize = linuxsim.PageSize
		e.FirstTouch = true
	} else {
		// The paper's 8XEON extension: first-touch at 2 MiB for 24+
		// cores; immediate (local) allocation otherwise (§6.3).
		firstTouch := m.Sockets > 1 && threads >= 24 && !cfg.ForceImmediate
		var boot int64
		if row.bootImageStatics {
			boot = cfg.BootImageBytes
		}
		k := nautilus.Boot(nautilus.Config{
			Machine:        m,
			Seed:           cfg.Seed,
			EQ:             cfg.SimEQ,
			Costs:          row.costs(m),
			FirstTouch:     firstTouch,
			BootImageBytes: boot,
		})
		k.LazyFPU, k.ISTTrampoline = row.lazyFPU, row.istTrampoline
		e.Kernel = k
		e.Layer = k.Layer
		e.AS = k.AS
		e.PageSize = k.AS.PageSize
		e.FirstTouch = firstTouch
		if row.buddyPages && !firstTouch {
			e.PageSize = 2 << 20
		}
	}
	e.Layer.Spine = cfg.Spine
	return e
}

// OMPRuntime builds the environment's OpenMP runtime (not meaningful for
// CCK, which has no OpenMP runtime — §6.1's "no microbenchmark numbers
// for CCK"). On RTK the runtime comes out of the §3 port (rtk.NewPort),
// so kernel environment variables apply on top of Config.OMP.
func (e *Env) OMPRuntime() *omp.Runtime {
	if !e.row.omp {
		panic(fmt.Sprintf("core: %v has no OpenMP runtime to instantiate", e.Kind))
	}
	opts := e.omp
	opts.MaxThreads, opts.Bind = e.threads, true
	opts.Spine, opts.Device = e.spine, e.Device()
	if e.row.rtkPort {
		// Config.OMP is programmatic; what the port can reject is a
		// malformed kernel environment variable (Kernel.Setenv).
		port, err := rtk.NewPort(e.Kernel, rtk.Options{OMP: opts})
		if err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
		return port.RT
	}
	part, err := places.Parse(opts.PlacesSpec, places.ForMachine(e.Machine))
	if err != nil {
		// A spec the machine cannot satisfy is a configuration bug.
		panic(fmt.Sprintf("core: %v", err))
	}
	opts.Places = part
	return omp.New(e.Layer, opts)
}

// Virgil builds the environment's VIRGIL runtime (the AutoMP target):
// kernel-level in an in-kernel environment (CCK), user-level otherwise.
func (e *Env) Virgil() virgil.Runtime {
	if e.Kernel != nil {
		cpus := make([]int, e.threads)
		for i := range cpus {
			cpus[i] = i
		}
		v := virgil.NewKernel(e.Kernel, cpus)
		if e.spine != nil {
			v.SetSpine(e.spine)
		}
		return v
	}
	v := virgil.NewUser(e.threads)
	if e.spine != nil {
		v.SetSpine(e.spine)
	}
	return v
}

// WithVirgil runs body against a started VIRGIL runtime of the
// environment on tc, the orchestrating thread, and stops the runtime
// when body returns. The orchestrating thread only submits and waits; in
// a real kernel its microsecond-scale operations preempt and interleave
// with the worker occupying its CPU. WithVirgil unbinds it first so the
// non-preemptive simulated CPU does not serialize worker wakeups behind
// multi-millisecond task bodies.
func (e *Env) WithVirgil(tc exec.TC, body func(virgil.Runtime)) {
	if ph, ok := tc.(exec.ProcHolder); ok {
		ph.Proc().SetCPU(-1)
	}
	v := e.Virgil()
	v.Start(tc)
	body(v)
	v.Stop(tc)
}

// Threads returns the environment's configured worker count.
func (e *Env) Threads() int { return e.threads }

// Multiplier converts a region's memory profile into the environment's
// effective-cost multiplier (see the package-level Multiplier).
func (e *Env) Multiplier(mem cck.MemProfile, remoteFrac float64) float64 {
	return Multiplier(e.Machine, e.Kind, e.PageSize, e.threads, mem, remoteFrac)
}

// Multiplier converts a region's memory profile into the effective-cost
// multiplier of environment kind on machine m at the given page size and
// thread count: translation overhead at the page size, the static-layout
// overhead boot-image placement removes, the user-level environment
// overhead every kernel path removes, and the NUMA penalty for the given
// remote-access fraction. Per-environment overheads are damped as the
// memory system saturates (beyond mem.SatThreads, every environment
// increasingly waits on the same DRAM, compressing the ratios — the
// high-core-count behaviour of Fig. 9). It builds no environment.
func Multiplier(m *machine.Machine, kind Kind, pageSize int64, threads int, mem cck.MemProfile, remoteFrac float64) float64 {
	row := kind.row()
	over := memsim.TLBModel{Machine: m}.OverheadFraction(mem.WorkingSetBytes, mem.TLBPressure, pageSize)
	if !row.bootImageStatics {
		over += mem.StaticLayoutFrac
	}
	if !row.inKernel {
		over += mem.KernelFrac
	}
	if mem.SatThreads > 0 {
		over /= 1 + float64(threads)/mem.SatThreads
	}
	if remoteFrac > 0 && mem.MemBoundFrac > 0 {
		ratio := m.RemoteLatencyNS/m.LocalLatencyNS - 1
		over += mem.MemBoundFrac * remoteFrac * ratio
	}
	return 1 + over
}

// Scale returns a cck.CostScale closure with a fixed remote fraction.
func (e *Env) Scale(remoteFrac float64) cck.CostScale {
	return func(mem cck.MemProfile, cost int64) int64 {
		return int64(float64(cost) * e.Multiplier(mem, remoteFrac))
	}
}

// TouchCost charges first-touch behaviour for a freshly allocated region:
// under demand paging this is where the Linux fault volume lands.
func (e *Env) TouchCost(r *memsim.Region, cpu int) float64 {
	return e.AS.TouchAll(r, cpu)
}
