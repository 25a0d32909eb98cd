package core

import (
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
)

// kernelCosts and pikCosts build the primitive cost tables of the
// in-kernel environments: kernelCosts for RTK and CCK, which call the
// kernel's primitives directly, pikCosts for PIK. The qualitative relationships come straight from the
// paper's evaluation:
//
//   - Kernel primitives (thread dispatch, event signaling) avoid the
//     syscall boundary, KPTI, and the general-purpose scheduler (§2.1).
//   - RTK nevertheless shows *slightly higher* EPCC overheads than Linux
//     on PHI (§6.1): the ported runtime pays the pthread compatibility
//     layer on every operation and allocates from the kernel buddy
//     allocator. Those paths are dependent-instruction chains that the
//     1.3 GHz in-order Phi cores cannot overlap, so they carry a
//     quadratic clock sensitivity here (scale2); on the out-of-order
//     2.1 GHz Xeons the same paths cost little and the kernel's latency
//     advantages win (Fig. 13).
//   - PIK runs the identical user-level code; its "syscalls" stay at the
//     same privilege level in the same address space (§4.3), making the
//     entries cheaper than Linux everywhere, and the kernel brings
//     jitter near zero.
//   - SCHEDULE overheads are atomic chunk-grabbing in user-level code —
//     the same instructions in every environment — so they stay
//     comparable (§6.3).
func kernelCosts(m *machine.Machine) exec.Costs {
	scale, scale2, crossSocket := kernelScales(m)
	return exec.Costs{
		// Kernel thread creation is "orders of magnitude faster".
		ThreadSpawnNS: 2_200,
		ThreadExitNS:  400,
		ThreadJoinNS:  scale(300),

		// Direct waitqueue operations behind the PTE-heritage
		// compatibility layering.
		FutexWaitEntryNS:   scale2(300),
		FutexWakeEntryNS:   scale2(280),
		FutexWakeLatencyNS: 900,
		FutexWakeStaggerNS: scale2(110) * crossSocket,

		AtomicRMWNS:     scale(22),
		CacheLineXferNS: 45 * crossSocket,
		YieldNS:         scale(140),

		// The buddy allocator has no thread-local magazine layer
		// (§6.1's "experiences kernel memory allocation directly").
		MallocNS: scale2(200),

		TLSAccessNS:    scale(4),
		SyscallExtraNS: 0, // there is no syscall boundary at all
	}
}

func pikCosts(m *machine.Machine) exec.Costs {
	scale, _, crossSocket := kernelScales(m)
	return exec.Costs{
		// clone(2) through the emulated ABI into the fast kernel
		// thread path.
		ThreadSpawnNS: 6_000,
		ThreadExitNS:  900,
		ThreadJoinNS:  scale(500),

		// The same NPTL futex code, but the "syscall" stays at the
		// same privilege level on the same stack (§4.2).
		FutexWaitEntryNS:   scale(300),
		FutexWakeEntryNS:   scale(280),
		FutexWakeLatencyNS: 1_500,
		FutexWakeStaggerNS: scale(120) * crossSocket,

		AtomicRMWNS:     scale(22),
		CacheLineXferNS: 45 * crossSocket,
		YieldNS:         scale(320),

		// glibc malloc emulated over kernel mmap.
		MallocNS: scale(210),

		TLSAccessNS:    scale(4),
		SyscallExtraNS: scale(130),
	}
}

// kernelScales returns the clock scalings of the kernel cost tables —
// linear, and quadratic for the dependent-instruction chains — and the
// cross-socket factor of the kernel wake path.
func kernelScales(m *machine.Machine) (scale, scale2 func(ns float64) int64, crossSocket int64) {
	scale = func(ns float64) int64 { return int64(ns * 2.1 / m.GHz) }
	scale2 = func(ns float64) int64 {
		f := 2.1 / m.GHz
		return int64(ns * f * f)
	}
	crossSocket = 1
	if m.Sockets > 1 {
		crossSocket = 2 // the kernel wake path crosses sockets more cheaply than Linux's 3x
	}
	return scale, scale2, crossSocket
}
