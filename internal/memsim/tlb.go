package memsim

import "github.com/interweaving/komp/internal/machine"

// TLBModel estimates the fraction of a compute phase lost to address
// translation, given the phase's per-thread working set, its translation
// pressure (how often it changes pages: strided and random codes are high,
// streaming codes low), and the page size in use.
//
// The model is analytic rather than trace-driven: a working set fully
// covered by TLB reach misses only on first touch (≈0 steady-state); as
// the working set exceeds reach, the miss overhead approaches the phase's
// full translation pressure. This reproduces the behaviour the paper
// leans on (§2.1): identity-mapped huge pages make TLB misses "extremely
// rare... if the TLB entries can cover the physical address space, do not
// occur at all after startup".
type TLBModel struct {
	Machine *machine.Machine
}

// OverheadFraction returns the fraction of compute time lost to TLB
// misses and page walks for a phase with the given per-thread working set
// (bytes), translation pressure (0..1, the asymptotic fraction of time a
// translation-bound version of the phase would lose), and page size.
func (t TLBModel) OverheadFraction(workingSet int64, pressure float64, pageSize int64) float64 {
	if workingSet <= 0 || pressure <= 0 {
		return 0
	}
	tlb, ok := t.Machine.TLBFor(pageSize)
	if !ok {
		// Unknown page size: assume one entry per page with no caching
		// benefit beyond a single page.
		tlb = machine.TLB{PageSize: pageSize, Entries: 1}
	}
	reach := tlb.Reach()
	if reach >= workingSet {
		return 0
	}
	// Fraction of accesses whose page is not covered by the TLB, under a
	// uniform-reuse approximation.
	missing := float64(workingSet-reach) / float64(workingSet)
	return pressure * missing
}
