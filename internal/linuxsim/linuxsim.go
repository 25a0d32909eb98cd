// Package linuxsim models the Linux user-level execution environment the
// paper compares against (§2.2): a tickless 5.x kernel with demand-paged
// 4 KiB pages (THP set to madvise, so unmadvised OpenMP heaps stay on
// small pages), futex-based blocking through the syscall boundary, and
// the residual OS noise of a general-purpose kernel (daemons, kworkers,
// RCU, timer reprogramming).
//
// Only the costs of this environment matter to the figures, so the
// package provides the Linux primitive cost table, the Linux noise model,
// and the demand-paged address-space constructor.
package linuxsim

import (
	"math/rand"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/memsim"
	"github.com/interweaving/komp/internal/sim"
)

// PageSize is the demand-paged application page size.
const PageSize = 4 << 10

// PageFaultNS is the cost of a minor fault: trap, allocate, zero 4 KiB,
// map, return.
const PageFaultNS = 2500

// Costs returns the Linux primitive cost table for a machine. Fixed
// hardware costs (trap entry) do not depend on the clock; instruction-
// path costs scale with the machine's clock rate relative to a 2.1 GHz
// reference (the Xeon Phi's slow in-order cores make user-level runtime
// code proportionally slower).
func Costs(m *machine.Machine) exec.Costs {
	scale := func(ns float64) int64 { return int64(ns * 2.1 / m.GHz) }
	crossSocket := int64(1)
	if m.Sockets > 1 {
		crossSocket = 3 // cross-socket cacheline transfer multiplier
	}
	return exec.Costs{
		// pthread_create + stack mmap + first dispatch.
		ThreadSpawnNS: 18_000,
		ThreadExitNS:  2_000,
		ThreadJoinNS:  scale(900),

		// futex(2): syscall entry/exit, hash bucket, plist; wake-to-run
		// includes scheduler wakeup, possible IPI, and context switch.
		FutexWaitEntryNS:   scale(420),
		FutexWakeEntryNS:   scale(380),
		FutexWakeLatencyNS: 2_600,
		FutexWakeStaggerNS: scale(140) * crossSocket,

		AtomicRMWNS:     scale(22),
		CacheLineXferNS: 45 * crossSocket,
		YieldNS:         scale(650),

		MallocNS: scale(160),

		TLSAccessNS:    scale(4),
		SyscallExtraNS: scale(400),
	}
}

// Noise is the Linux interference model: per-CPU random housekeeping
// preemptions (kworkers, RCU callbacks, timer reprogramming) plus a small
// multiplicative jitter. CPU 0 additionally absorbs unsteered device
// interrupts.
type Noise struct {
	// DaemonIntervalNS is the mean interval between housekeeping events
	// on each CPU.
	DaemonIntervalNS int64
	// DaemonCostNS is the mean cost of one event.
	DaemonCostNS int64
	// JitterFrac is the maximum multiplicative jitter per segment.
	JitterFrac float64
	// CPU0ExtraNS is additional per-event cost on CPU 0.
	CPU0ExtraNS int64
}

// NewNoise returns the default Linux noise model.
func NewNoise(m *machine.Machine) *Noise {
	return &Noise{
		DaemonIntervalNS: 4 * int64(sim.Millisecond),
		DaemonCostNS:     11 * int64(sim.Microsecond),
		JitterFrac:       0.004,
		CPU0ExtraNS:      6 * int64(sim.Microsecond),
	}
}

// Extend implements sim.NoiseModel.
func (n *Noise) Extend(rng *rand.Rand, cpu int, start, d sim.Time) sim.Time {
	if d <= 0 {
		return start + d
	}
	exp := float64(d) / float64(n.DaemonIntervalNS)
	count := int64(exp)
	if rng.Float64() < exp-float64(count) {
		count++
	}
	var stolen sim.Time
	for i := int64(0); i < count; i++ {
		// Event costs vary 0.5x..1.5x of the mean.
		c := n.DaemonCostNS/2 + rng.Int63n(n.DaemonCostNS)
		if cpu == 0 {
			c += n.CPU0ExtraNS
		}
		stolen += c
	}
	jitter := sim.Time(float64(d) * n.JitterFrac * rng.Float64())
	return start + d + stolen + jitter
}

// NewAddressSpace returns the demand-paged 4 KiB Linux address space with
// first-touch NUMA placement (the Linux default).
func NewAddressSpace(m *machine.Machine) *memsim.AddressSpace {
	return memsim.NewAddressSpace(m, memsim.Demand, PageSize, memsim.PlaceFirstTouch, PageFaultNS)
}

// NewSim builds the simulator for a Linux run: machine CPUs, Linux noise.
func NewSim(m *machine.Machine, seed int64) *sim.Sim {
	s := sim.New(m.NumCPUs(), seed)
	s.SetNoise(NewNoise(m))
	return s
}
