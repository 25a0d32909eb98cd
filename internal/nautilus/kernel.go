// Package nautilus implements the Nautilus-analogue kernel framework: the
// hybrid-runtime (HRT) substrate the paper builds RTK, PIK, and the
// kernel-level VIRGIL runtime on (§2.1). It provides:
//
//   - boot-time identity-mapped memory with the largest possible page
//     size, per-NUMA-zone buddy allocators, and no page faults;
//   - kernel threads bound to CPUs, with hardware-TLS (FSBASE) context
//     switching and lazy SSE/FPU save-restore across interrupts (§3.4);
//   - a steerable interrupt model with deterministic handler path lengths;
//   - a SoftIRQ-like per-CPU task system (the substrate for kernel-level
//     VIRGIL, §5);
//   - a kernel environment-variable mechanism and a sysconf() subset
//     (exactly the libomp dependencies §3.4 calls out);
//   - a shell whose commands are how an RTK application's main() enters
//     the kernel (§3.1).
package nautilus

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/memsim"
	"github.com/interweaving/komp/internal/sim"
)

// Sysconf keys (the subset libomp needs, §3.4).
const (
	ScNProcessorsOnln = "_SC_NPROCESSORS_ONLN"
	ScNProcessorsConf = "_SC_NPROCESSORS_CONF"
	ScPageSize        = "_SC_PAGESIZE"
	ScClkTck          = "_SC_CLK_TCK"
)

// Config configures a kernel boot.
type Config struct {
	Machine *machine.Machine
	Seed    int64
	// Costs is the kernel primitive cost table (used by the exec layer).
	Costs exec.Costs
	// FirstTouch enables first-touch allocation at 2 MiB granularity
	// instead of immediate allocation — the paper's 8XEON extension for
	// 24+ cores (§6.3).
	FirstTouch bool
	// BootImageBytes is the size of static data linked into the kernel
	// image (RTK/CCK gigabyte-size globals problem, §6.2). It is
	// resident at boot.
	BootImageBytes int64
}

// ShellCmd is a kernel shell command. In RTK the application's main() is
// converted into one of these (§3.1).
type ShellCmd func(tc exec.TC, k *Kernel, args []string) error

// Kernel is a booted Nautilus-analogue kernel.
type Kernel struct {
	Machine *machine.Machine
	Sim     *sim.Sim
	Layer   *exec.SimLayer
	// AS is the kernel's identity-mapped address space.
	AS *memsim.AddressSpace
	// Buddies holds the per-DRAM-zone buddy allocators.
	Buddies map[int]*memsim.BuddyAllocator
	// IRQ is the interrupt controller.
	IRQ *IRQController
	// Tasks is the SoftIRQ-like task system.
	Tasks *TaskSystem

	env        map[string]string
	shell      map[string]ShellCmd
	threads    map[int]*KThread // proc id -> kthread
	nextTID    int
	bootImg    *memsim.Region
	firstTouch bool

	// Features toggled by the RTK/PIK ports.
	LazyFPU       bool // lazy SSE save/restore on interrupts (§3.4)
	ISTTrampoline bool // PIK: copy interrupt frame past the red zone (§4.2)
}

// NumCPUs returns the kernel's CPU count: the whole machine.
func (k *Kernel) NumCPUs() int { return k.Machine.NumCPUs() }

// Boot creates a simulator of the machine and boots a kernel on it.
func Boot(cfg Config) *Kernel {
	if cfg.Machine == nil {
		panic("nautilus: Boot without machine")
	}
	s := sim.New(cfg.Machine.NumCPUs(), cfg.Seed)
	s.SetNoise(NewNautilusNoise(cfg.Machine))

	// Identity paging with the largest possible page size; everything is
	// mapped at boot, so faults never occur (§2.1).
	pageSize := cfg.Machine.TLBs[len(cfg.Machine.TLBs)-1].PageSize
	place := memsim.PlaceLocal
	if cfg.FirstTouch {
		place = memsim.PlaceFirstTouch
		pageSize = 2 << 20 // first-touch at 2 MiB granularity (§6.3)
	}
	as := memsim.NewAddressSpace(cfg.Machine, memsim.Identity, pageSize, place, 0)

	k := &Kernel{
		Machine:    cfg.Machine,
		Sim:        s,
		AS:         as,
		Buddies:    make(map[int]*memsim.BuddyAllocator),
		env:        make(map[string]string),
		shell:      make(map[string]ShellCmd),
		threads:    make(map[int]*KThread),
		firstTouch: cfg.FirstTouch,
	}
	for _, z := range cfg.Machine.Zones {
		if z.Kind == machine.DRAM && len(z.CPUs) > 0 {
			b, err := memsim.NewBuddy(z.Bytes)
			if err != nil {
				panic(fmt.Sprintf("nautilus: zone %d: %v", z.ID, err))
			}
			k.Buddies[z.ID] = b
		}
	}
	if cfg.BootImageBytes > 0 {
		k.bootImg = as.Alloc("boot-image", cfg.BootImageBytes, 0)
		// The boot image is carved out of zone 0's allocator.
		if b := k.Buddies[0]; b != nil {
			b.Alloc(cfg.BootImageBytes)
		}
	}
	k.Layer = exec.NewSimLayer(s, cfg.Costs)
	k.Layer.SpawnHook = k.spawnHook
	k.IRQ = newIRQController(k)
	k.Tasks = newTaskSystem(k)
	return k
}

// BootImage returns the region holding statics linked into the kernel
// image, or nil.
func (k *Kernel) BootImage() *memsim.Region { return k.bootImg }

// --- Environment variables (general-purpose kernel mechanism, §3.4) ---

// Setenv sets a kernel environment variable.
func (k *Kernel) Setenv(key, val string) { k.env[key] = val }

// Getenv reads a kernel environment variable.
func (k *Kernel) Getenv(key string) (string, bool) {
	v, ok := k.env[key]
	return v, ok
}

// Environ returns the environment as sorted KEY=VALUE strings.
func (k *Kernel) Environ() []string {
	out := make([]string, 0, len(k.env))
	for kk, v := range k.env {
		out = append(out, kk+"="+v)
	}
	sort.Strings(out)
	return out
}

// --- sysconf (limited key set, §3.4) ---

// Sysconf returns the value for a supported sysconf key, or an error for
// unsupported keys (mirroring the limited in-kernel implementation).
func (k *Kernel) Sysconf(key string) (int64, error) {
	switch key {
	case ScNProcessorsOnln, ScNProcessorsConf:
		return int64(k.NumCPUs()), nil
	case ScPageSize:
		return int64(k.AS.PageSize), nil
	case ScClkTck:
		return 100, nil
	default:
		return 0, fmt.Errorf("nautilus: sysconf key %q not supported", key)
	}
}

// --- Kernel memory allocation (per-zone buddy allocators, §2.1) ---

// KAlloc allocates size bytes from the buddy allocator of the zone local
// to the given CPU, charging the allocator cost to tc. It returns a
// region in the kernel address space.
func (k *Kernel) KAlloc(tc exec.TC, name string, size int64, cpu int) (*memsim.Region, error) {
	zone := k.Machine.ZoneOf(cpu)
	b := k.Buddies[zone]
	if b == nil {
		return nil, fmt.Errorf("nautilus: no allocator for zone %d", zone)
	}
	if _, ok := b.Alloc(size); !ok {
		return nil, fmt.Errorf("nautilus: zone %d out of memory for %d bytes", zone, size)
	}
	tc.Charge(tc.Costs().MallocNS)
	r := k.AS.Alloc(name, size, cpu)
	return r, nil
}

// --- Shell (§3.1: application main() becomes a shell command) ---

// RegisterCommand installs a shell command.
func (k *Kernel) RegisterCommand(name string, cmd ShellCmd) {
	k.shell[name] = cmd
}

// Commands returns the sorted names of registered shell commands.
func (k *Kernel) Commands() []string {
	out := make([]string, 0, len(k.shell))
	for name := range k.shell {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RunCommand parses and runs a shell command line on the calling thread.
func (k *Kernel) RunCommand(tc exec.TC, line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	cmd, ok := k.shell[fields[0]]
	if !ok {
		return fmt.Errorf("nautilus: unknown command %q", fields[0])
	}
	return cmd(tc, k, fields[1:])
}

// ParseEnvInt reads an integer-valued kernel environment variable with a
// default, the way the in-kernel libomp port reads OMP_NUM_THREADS.
func (k *Kernel) ParseEnvInt(key string, def int) int {
	if v, ok := k.env[key]; ok {
		if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
			return n
		}
	}
	return def
}

func (k *Kernel) spawnHook(tc exec.TC, cpu int) {
	// Every spawned proc becomes a kernel thread; the hook runs on the
	// parent, the thread registers itself on first context use.
	k.nextTID++
}
