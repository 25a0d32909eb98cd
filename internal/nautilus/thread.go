package nautilus

import (
	"fmt"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/sim"
)

// FPUState is a simulated SSE/AVX register file slice — enough state to
// demonstrate the corruption the paper debugged (§3.4: "SSE (and higher)
// floating point state being corrupted" by interrupt handlers).
type FPUState [4]uint64

// TLSImage is the template for a thread's TLS segment: initialized data
// (TDATA) plus zeroed TBSS. Thread launch clones it (§3.4: "Thread launch
// clones TLS data and BSS to complete the support").
type TLSImage struct {
	Data    []byte
	BSSSize int
}

// Instantiate clones the image into a fresh TLS block.
func (img *TLSImage) Instantiate() *TLSBlock {
	b := &TLSBlock{Data: make([]byte, len(img.Data)+img.BSSSize)}
	copy(b.Data, img.Data)
	return b
}

// TLSBlock is a thread's hardware-TLS block; in real Nautilus+RTK the
// FSBASE MSR points at it and %fs-relative accesses index into it.
type TLSBlock struct {
	Data []byte
}

// KThread is a kernel thread: the Nautilus thread state that RTK's
// pthread compatibility layer wraps ("Within the kernel, a pthread thread
// is a variant of a kernel thread", §3.3).
type KThread struct {
	TID  int
	Name string

	// FSBase emulates the FSBASE MSR: the thread's hardware-TLS block.
	// Nautilus reserves %gs for per-CPU state, so only %fs is available
	// to the compiler (§3.4).
	FSBase *TLSBlock

	// FPU is the thread's live vector register state.
	FPU FPUState
	// FPUCorrupted is set when an SSE-using interrupt clobbered the
	// thread's registers without a save/restore.
	FPUCorrupted bool

	// RedZoneIntact is cleared when an interrupt ran on this thread's
	// stack inside the red zone window while the thread's code relied
	// on it.
	RedZoneIntact bool
	// UsesRedZone marks code compiled *with* red zone use (PIK binaries;
	// RTK code is compiled -mno-red-zone, §3.1).
	UsesRedZone bool

	proc *sim.Proc
}

// Thread returns (creating if necessary) the kernel thread object for the
// calling thread context. It panics if tc is not simulator-backed.
func (k *Kernel) Thread(tc exec.TC) *KThread {
	ph, ok := tc.(exec.ProcHolder)
	if !ok {
		panic("nautilus: thread context is not simulator-backed")
	}
	p := ph.Proc()
	if t, ok := p.Data.(*KThread); ok {
		return t
	}
	k.nextTID++
	t := &KThread{TID: k.nextTID, Name: p.Name, RedZoneIntact: true, proc: p}
	p.Data = t
	k.threads[p.ID] = t
	return t
}

// CurrentCPUThread returns the kernel thread currently associated with the
// given CPU's last dispatch, if any. The interrupt model uses it to find
// the FPU owner.
func (k *Kernel) threadOnCPU(cpu int) *KThread {
	// With 1:1 bound HPC threads the owner is the unique thread bound to
	// the CPU; scan the registry (small) for it.
	for _, t := range k.threads {
		if t.proc != nil && t.proc.CPUID() == cpu && t.proc.State() != sim.StateDone {
			return t
		}
	}
	return nil
}

// SetTLS installs a TLS block as the thread's FSBASE, charging the MSR
// write. This is what arch_prctl(ARCH_SET_FS) does in the PIK syscall
// layer and what RTK thread launch does after cloning the image.
func (k *Kernel) SetTLS(tc exec.TC, img *TLSImage) *TLSBlock {
	t := k.Thread(tc)
	t.FSBase = img.Instantiate()
	tc.Charge(tc.Costs().TLSAccessNS)
	return t.FSBase
}

// TLSLoad performs an %fs-relative load for the calling thread.
func (k *Kernel) TLSLoad(tc exec.TC, off int) (byte, error) {
	t := k.Thread(tc)
	if t.FSBase == nil {
		return 0, fmt.Errorf("nautilus: thread %d has no FSBASE", t.TID)
	}
	tc.Charge(tc.Costs().TLSAccessNS)
	return t.FSBase.Data[off], nil
}

// TLSStore performs an %fs-relative store for the calling thread.
func (k *Kernel) TLSStore(tc exec.TC, off int, v byte) error {
	t := k.Thread(tc)
	if t.FSBase == nil {
		return fmt.Errorf("nautilus: thread %d has no FSBASE", t.TID)
	}
	tc.Charge(tc.Costs().TLSAccessNS)
	t.FSBase.Data[off] = v
	return nil
}
