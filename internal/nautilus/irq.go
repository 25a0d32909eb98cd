package nautilus

import "fmt"

// IRQHandler is a registered interrupt handler with a deterministic path
// length — one of Nautilus's predictability features (§2.1: "interrupt
// handler logic with deterministic path lengths").
type IRQHandler struct {
	Name   string
	PathNS int64
	// UsesSSE marks a handler whose code the compiler vectorized; firing
	// it clobbers the interrupted thread's vector registers unless the
	// kernel saves them (§3.4).
	UsesSSE bool
	// NoSSE is the attribute the paper added to offending handlers after
	// the lazy-save machinery identified them.
	NoSSE bool

	Fires int64
}

// IRQController models interrupt delivery: full steering (so interrupts
// can "largely be avoided on most hardware threads", §2.1), on-thread-
// stack delivery with red zone interaction (§3.1), optional IST
// trampoline copies (§4.2), and lazy FPU save/restore (§3.4).
type IRQController struct {
	k        *Kernel
	handlers map[string]*IRQHandler
	// steerMask[cpu] is true if the CPU may receive device interrupts.
	steerMask []bool

	// LazySaves counts lazy FPU save/restores; Offenders records which
	// handlers triggered them (the identification feature of §3.4).
	LazySaves int64
	Offenders map[string]int64
}

func newIRQController(k *Kernel) *IRQController {
	c := &IRQController{
		k:         k,
		handlers:  make(map[string]*IRQHandler),
		steerMask: make([]bool, k.Machine.NumCPUs()),
		Offenders: make(map[string]int64),
	}
	// Default steering: everything to CPU 0.
	c.steerMask[0] = true
	return c
}

// Register installs a handler.
func (c *IRQController) Register(h *IRQHandler) {
	if h.Name == "" {
		panic("nautilus: IRQ handler without name")
	}
	c.handlers[h.Name] = h
}

// Handler returns a registered handler.
func (c *IRQController) Handler(name string) (*IRQHandler, bool) {
	h, ok := c.handlers[name]
	return h, ok
}

// Steer restricts device interrupt delivery to the given CPUs.
func (c *IRQController) Steer(cpus ...int) {
	for i := range c.steerMask {
		c.steerMask[i] = false
	}
	for _, cpu := range cpus {
		c.steerMask[cpu] = true
	}
}

// Fire delivers the named interrupt on a CPU at the current virtual time.
// It steals the handler's path length from the CPU timeline and applies
// the FPU and red zone interactions. It returns the total time consumed
// by the interrupt (path + FPU handling).
func (c *IRQController) Fire(name string, cpu int) (int64, error) {
	h, ok := c.handlers[name]
	if !ok {
		return 0, fmt.Errorf("nautilus: fire of unregistered IRQ %q", name)
	}
	if !c.steerMask[cpu] {
		return 0, fmt.Errorf("nautilus: IRQ %q not steered to CPU %d", name, cpu)
	}
	h.Fires++
	cost := h.PathNS

	victim := c.k.threadOnCPU(cpu)

	// FPU interaction (§3.4): Clang aggressively used SSE in interrupt
	// handlers; without management this corrupts the interrupted
	// thread's state. With LazyFPU the kernel saves/restores and records
	// the offender; with the NoSSE attribute the handler never touches
	// vector state.
	if h.UsesSSE && !h.NoSSE {
		if c.k.LazyFPU {
			c.LazySaves++
			c.Offenders[h.Name]++
			cost += 180 // save + restore of the vector file
		} else if victim != nil {
			victim.FPUCorrupted = true
			victim.FPU = FPUState{0xDEAD, 0xDEAD, 0xDEAD, 0xDEAD}
		}
	}

	// Red zone interaction: Nautilus handles interrupts on the current
	// thread's stack (§3.1), which clobbers unallocated red zone state
	// unless either the code was compiled -mno-red-zone (RTK) or the
	// kernel copies the frame past the red zone via IST (PIK, §4.2).
	if victim != nil && victim.UsesRedZone {
		if c.k.ISTTrampoline {
			cost += 60 // trampoline copy of the interrupt frame
		} else {
			victim.RedZoneIntact = false
		}
	}

	// Steal the time from the CPU's timeline.
	hw := c.k.Sim.CPU(cpu)
	now := c.k.Sim.Now()
	start := now
	if hw.FreeAt > start {
		start = hw.FreeAt
	}
	hw.FreeAt = start + cost
	return cost, nil
}

// FirePeriodic schedules the named interrupt to fire on a CPU every
// period nanoseconds until the returned cancel function is called. The
// periodic event keeps the simulator's queue non-empty, so callers
// driving the simulator with Run (rather than RunUntil) must cancel
// before expecting Run to return.
func (c *IRQController) FirePeriodic(name string, cpu int, period int64) (cancel func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		if _, err := c.Fire(name, cpu); err == nil {
			c.k.Sim.After(period, tick)
		}
	}
	c.k.Sim.After(period, tick)
	return func() { stopped = true }
}
