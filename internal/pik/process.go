package pik

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/memsim"
	"github.com/interweaving/komp/internal/nautilus"
	"github.com/interweaving/komp/internal/ompt"
)

// Linux x86-64 syscall numbers (the subset with stubs/implementations).
const (
	SysRead          = 0
	SysWrite         = 1
	SysMmap          = 9
	SysMunmap        = 11
	SysBrk           = 12
	SysRtSigaction   = 13
	SysRtSigprocmask = 14
	SysSchedYield    = 24
	SysMadvise       = 28
	SysNanosleep     = 35
	SysGetpid        = 39
	SysClone         = 56
	SysExit          = 60
	SysUname         = 63
	SysGettid        = 186
	SysFutex         = 202
	SysSchedSetaff   = 203
	SysSchedGetaff   = 204
	SysArchPrctl     = 158
	SysSetTidAddress = 218
	SysClockGettime  = 228
	SysExitGroup     = 231
	SysOpenat        = 257
	SysGetcpu        = 309
)

// Errnos (negated in return values, Linux-style).
const (
	ENOSYS = 38
	ENOENT = 2
	EBADF  = 9
	EINVAL = 22
	EAGAIN = 11
)

// arch_prctl codes.
const (
	ArchSetFS = 0x1002
	ArchGetFS = 0x1003
)

// Program is a registered PIK entry point: the Go stand-in for the ELF
// entry address. It returns the process exit code.
type Program func(tc exec.TC, p *Process, args []string) int

var (
	registryMu sync.Mutex
	registry   = map[string]Program{}
)

// RegisterEntry installs an entry symbol. Re-registering a name replaces
// the previous entry (tests rely on this).
func RegisterEntry(name string, fn Program) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = fn
}

func lookupEntry(name string) (Program, bool) {
	registryMu.Lock()
	defer registryMu.Unlock()
	fn, ok := registry[name]
	return fn, ok
}

// mapping is one mmap'd range of the process.
type mapping struct {
	addr, size int64
	region     *memsim.Region
}

// Process is a kernel-mode process: a thread group sharing the kernel
// address space (no user mode, no separate page tables by default), with
// a custom allocator layered on kernel memory and an emulated Linux
// syscall surface (§4.2, §4.3).
type Process struct {
	K   *nautilus.Kernel
	Img *Image
	PID int

	// Base is the physical placement the loader chose.
	Base int64

	env map[string]string

	// Heap / mmap arena.
	nextAddr int64
	brk      int64
	brkStart int64
	maps     []mapping

	// Console output (write to fd 1/2).
	Stdout strings.Builder

	// Open file descriptors (only /proc/self files).
	fds    map[int]*procFile
	nextFD int

	// Thread accounting.
	nextTID int
	threads int

	// Futex words by emulated address.
	futexMu sync.Mutex
	futexes map[int64]*exec.Word

	// spine, if set, receives the kernel-side view of the process's
	// futex traffic (SyncFutex events keyed by emulated address).
	spine *ompt.Spine

	// Per-thread FSBASE (arch_prctl ARCH_SET_FS), keyed by TID.
	fsbase map[int]int64
	// affinity is the sched_setaffinity mask (CPU count granularity).
	affinity int64
	// sigHandlers counts installed rt_sigaction handlers per signo.
	sigHandlers map[int64]int64

	// Exit state.
	Exited   bool
	ExitCode int

	// Syscall accounting: the "stubs so we can see all activity" design.
	Calls     map[int]int64
	StubCalls map[int]int64
}

type procFile struct {
	path    string
	content []byte
	off     int
}

func newProcess(k *nautilus.Kernel, img *Image, base int64) *Process {
	return &Process{
		K: k, Img: img, PID: 1000 + int(base%1000), Base: base,
		env:         map[string]string{},
		nextAddr:    0x7f00_0000_0000,
		fds:         map[int]*procFile{},
		nextFD:      3,
		futexes:     map[int64]*exec.Word{},
		fsbase:      map[int]int64{},
		sigHandlers: map[int64]int64{},
		Calls:       map[int]int64{},
		StubCalls:   map[int]int64{},
	}
}

// Setenv sets a process environment variable (the loader copies the
// kernel environment in, mirroring how RTK reads kernel env vars).
func (p *Process) Setenv(k, v string) { p.env[k] = v }

// Getenv reads a process environment variable.
func (p *Process) Getenv(k string) (string, bool) {
	v, ok := p.env[k]
	return v, ok
}

// syscallEnter charges the PIK syscall path: same address space, same
// privilege level, same stack — far cheaper than a real mode switch; the
// handler only adjusts the stack pointer past the red zone (§4.2).
func (p *Process) syscallEnter(tc exec.TC, num int) {
	tc.Charge(tc.Costs().SyscallExtraNS)
	p.Calls[num]++
}

// Syscall dispatches an emulated Linux system call. Unimplemented calls
// return -ENOSYS and are counted, exactly like the stub design of §4.3.
func (p *Process) Syscall(tc exec.TC, num int, args ...int64) int64 {
	p.syscallEnter(tc, num)
	arg := func(i int) int64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	switch num {
	case SysWrite:
		return p.sysWrite(int(arg(0)), arg(1), arg(2))
	case SysRead:
		return p.sysRead(int(arg(0)), arg(1), arg(2))
	case SysMmap:
		return p.sysMmap(tc, arg(1))
	case SysMunmap:
		return p.sysMunmap(arg(0))
	case SysBrk:
		return p.sysBrk(tc, arg(0))
	case SysSchedYield:
		tc.Yield()
		return 0
	case SysNanosleep:
		tc.Sleep(arg(0))
		return 0
	case SysGetpid:
		return int64(p.PID)
	case SysGettid:
		return int64(p.PID) // main thread; clone() assigns others
	case SysUname, SysSetTidAddress:
		return 0
	case SysClockGettime:
		// No vDSO in PIK (§4.3): this really is a syscall, but a cheap
		// same-privilege one.
		return tc.Now()
	case SysSchedGetaff:
		if p.affinity != 0 {
			return p.affinity
		}
		return int64(p.K.Machine.NumCPUs())
	case SysSchedSetaff:
		if arg(1) <= 0 || arg(1) > int64(p.K.Machine.NumCPUs()) {
			return -EINVAL
		}
		p.affinity = arg(1)
		return 0
	case SysRtSigaction:
		// libomp installs handlers at init; accept and count them.
		p.sigHandlers[arg(0)]++
		return 0
	case SysRtSigprocmask:
		return 0
	case SysMadvise:
		// The PIK address space is identity-mapped; MADV_HUGEPAGE is a
		// successful no-op, everything else is unsupported advice.
		if arg(2) == 14 /* MADV_HUGEPAGE */ {
			return 0
		}
		return -EINVAL
	case SysGetcpu:
		return int64(tc.CPU())
	case SysArchPrctl:
		return p.sysArchPrctl(int(arg(0)), arg(1))
	case SysExit, SysExitGroup:
		p.Exited = true
		p.ExitCode = int(arg(0))
		return 0
	case SysOpenat:
		return int64(p.openProcSelf(procPathFromArg(arg(1))))
	default:
		p.StubCalls[num]++
		return -ENOSYS
	}
}

// procPathArgs maps fake path "addresses" to strings for the openat
// emulation; test programs pass PathArg("...") as the address argument.
var (
	pathMu   sync.Mutex
	pathTab        = map[int64]string{}
	pathNext int64 = 1
)

// PathArg interns a path string into a fake address for Syscall(SysOpenat).
func PathArg(path string) int64 {
	pathMu.Lock()
	defer pathMu.Unlock()
	pathNext++
	pathTab[pathNext] = path
	return pathNext
}

func procPathFromArg(a int64) string {
	pathMu.Lock()
	defer pathMu.Unlock()
	return pathTab[a]
}

func (p *Process) sysWrite(fd int, _ int64, n int64) int64 {
	if fd != 1 && fd != 2 {
		return -EBADF
	}
	// The data pointer is opaque in the simulation; account length only.
	p.Stdout.WriteString(fmt.Sprintf("[write fd=%d len=%d]", fd, n))
	return n
}

// WriteString is the test/program-facing console write (data + syscall
// accounting).
func (p *Process) WriteString(tc exec.TC, s string) int64 {
	p.syscallEnter(tc, SysWrite)
	p.Stdout.WriteString(s)
	return int64(len(s))
}

func (p *Process) sysRead(fd int, _ int64, n int64) int64 {
	f, ok := p.fds[fd]
	if !ok {
		return -EBADF
	}
	remain := len(f.content) - f.off
	if remain <= 0 {
		return 0
	}
	if int64(remain) < n {
		n = int64(remain)
	}
	f.off += int(n)
	return n
}

// ReadFile reads a whole emulated /proc file through the fd interface.
func (p *Process) ReadFile(tc exec.TC, path string) (string, error) {
	fd := p.openProcSelf(path)
	if fd < 0 {
		return "", fmt.Errorf("pik: open %s: errno %d", path, -fd)
	}
	f := p.fds[fd]
	delete(p.fds, fd)
	p.syscallEnter(tc, SysRead)
	return string(f.content), nil
}

// openProcSelf implements the only virtual filesystem PIK provides:
// /proc/self (§4.3).
func (p *Process) openProcSelf(path string) int {
	if !strings.HasPrefix(path, "/proc/self") {
		return -ENOENT
	}
	var content string
	switch path {
	case "/proc/self/status":
		content = fmt.Sprintf("Name:\t%s\nPid:\t%d\nThreads:\t%d\nCpus_allowed_list:\t0-%d\n",
			p.Img.Name, p.PID, p.threads+1, p.K.Machine.NumCPUs()-1)
	case "/proc/self/stat":
		content = fmt.Sprintf("%d (%s) R 0 0 0", p.PID, p.Img.Name)
	case "/proc/self/maps":
		var b strings.Builder
		fmt.Fprintf(&b, "%012x-%012x r-xp image %s\n", p.Base, p.Base+p.Img.TotalLoadSize(), p.Img.Name)
		for _, m := range p.maps {
			fmt.Fprintf(&b, "%012x-%012x rw-p anon\n", m.addr, m.addr+m.size)
		}
		content = b.String()
	default:
		return -ENOENT
	}
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = &procFile{path: path, content: []byte(content)}
	return fd
}

func (p *Process) sysMmap(tc exec.TC, size int64) int64 {
	if size <= 0 {
		return -EINVAL
	}
	r, err := p.K.KAlloc(tc, fmt.Sprintf("pik-mmap-%x", p.nextAddr), size, tc.CPU())
	if err != nil {
		return -EINVAL
	}
	addr := p.nextAddr
	p.nextAddr += (size + 0xFFF) &^ 0xFFF
	p.maps = append(p.maps, mapping{addr: addr, size: size, region: r})
	return addr
}

func (p *Process) sysMunmap(addr int64) int64 {
	for i, m := range p.maps {
		if m.addr == addr {
			p.maps = append(p.maps[:i], p.maps[i+1:]...)
			return 0
		}
	}
	return -EINVAL
}

func (p *Process) sysBrk(tc exec.TC, newBrk int64) int64 {
	if p.brkStart == 0 {
		p.brkStart = 0x5555_0000_0000
		p.brk = p.brkStart
	}
	if newBrk == 0 {
		return p.brk
	}
	if newBrk < p.brkStart {
		return -EINVAL
	}
	if newBrk > p.brk {
		tc.Charge(tc.Costs().MallocNS)
	}
	p.brk = newBrk
	return p.brk
}

func (p *Process) sysArchPrctl(code int, val int64) int64 {
	switch code {
	case ArchSetFS:
		p.fsbase[0] = val
		return 0
	case ArchGetFS:
		return p.fsbase[0]
	default:
		return -EINVAL
	}
}

// Clone spawns a new kernel thread in the process on the given CPU —
// the clone(2) path pthread_create takes. It charges the (cheap, same-
// privilege) syscall plus the kernel thread spawn.
func (p *Process) Clone(tc exec.TC, cpu int, fn func(tc exec.TC, tid int)) exec.Handle {
	p.syscallEnter(tc, SysClone)
	p.nextTID++
	p.threads++
	tid := p.PID + p.nextTID
	return tc.Spawn(fmt.Sprintf("pik-thread-%d", tid), cpu, func(wtc exec.TC) {
		fn(wtc, tid)
	})
}

// FutexWait emulates futex(FUTEX_WAIT) on an address in process memory.
func (p *Process) FutexWait(tc exec.TC, addr int64, val uint32) bool {
	p.syscallEnter(tc, SysFutex)
	sp := p.spine
	if sp.Enabled(ompt.SyncAcquire) {
		sp.Emit(ompt.Event{Kind: ompt.SyncAcquire, Sync: ompt.SyncFutex,
			Thread: int32(tc.CPU()), CPU: int32(tc.CPU()), TimeNS: tc.Now(), Obj: uint64(addr)})
	}
	woke := tc.FutexWait(p.futexWord(addr), val)
	if sp.Enabled(ompt.SyncAcquired) {
		sp.Emit(ompt.Event{Kind: ompt.SyncAcquired, Sync: ompt.SyncFutex,
			Thread: int32(tc.CPU()), CPU: int32(tc.CPU()), TimeNS: tc.Now(), Obj: uint64(addr)})
	}
	return woke
}

// FutexWake emulates futex(FUTEX_WAKE).
func (p *Process) FutexWake(tc exec.TC, addr int64, n int) int {
	p.syscallEnter(tc, SysFutex)
	if sp := p.spine; sp.Enabled(ompt.SyncRelease) {
		sp.Emit(ompt.Event{Kind: ompt.SyncRelease, Sync: ompt.SyncFutex,
			Thread: int32(tc.CPU()), CPU: int32(tc.CPU()), TimeNS: tc.Now(), Obj: uint64(addr)})
	}
	return tc.FutexWake(p.futexWord(addr), n)
}

// FutexWord returns the futex word backing an emulated address (programs
// store/load through it).
func (p *Process) FutexWord(addr int64) *exec.Word { return p.futexWord(addr) }

func (p *Process) futexWord(addr int64) *exec.Word {
	p.futexMu.Lock()
	defer p.futexMu.Unlock()
	w, ok := p.futexes[addr]
	if !ok {
		w = &exec.Word{}
		p.futexes[addr] = w
	}
	return w
}

// SyscallNames returns sorted "num:count" strings for reporting.
func (p *Process) SyscallNames() []string {
	var out []string
	for num, n := range p.Calls {
		out = append(out, fmt.Sprintf("%d:%d", num, n))
	}
	sort.Strings(out)
	return out
}
