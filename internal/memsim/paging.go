package memsim

import (
	"fmt"

	"github.com/interweaving/komp/internal/machine"
)

// PagingPolicy selects how virtual pages become resident.
type PagingPolicy int

// Paging policies.
const (
	// Identity maps every page at boot with the largest possible page
	// size — Nautilus's model (§2.1): no page faults, ever.
	Identity PagingPolicy = iota
	// Demand maps pages on first touch, charging a fault — the Linux
	// user-level model.
	Demand
)

func (p PagingPolicy) String() string {
	if p == Identity {
		return "identity"
	}
	return "demand"
}

// Placement selects how pages are assigned to NUMA zones.
type Placement int

// Placement policies.
const (
	// PlaceLocal assigns all pages to the allocating CPU's zone at
	// allocation time (Nautilus's immediate allocation).
	PlaceLocal Placement = iota
	// PlaceInterleave spreads pages round-robin over DRAM zones at
	// allocation time.
	PlaceInterleave
	// PlaceFirstTouch assigns each page to the zone of the first CPU
	// that touches it (Linux default, and Nautilus's 8XEON extension at
	// 2 MB granularity, §6.3).
	PlaceFirstTouch
)

func (p Placement) String() string {
	switch p {
	case PlaceLocal:
		return "local"
	case PlaceInterleave:
		return "interleave"
	default:
		return "first-touch"
	}
}

// Region is an allocated range of simulated memory.
type Region struct {
	Name     string
	Bytes    int64
	PageSize int64
	zones    []int16 // per page; -1 until placed
	resident []bool  // per page

	space *AddressSpace
}

// Pages returns the number of pages in the region.
func (r *Region) Pages() int { return len(r.zones) }

// ZoneOfPage returns the NUMA zone holding page i, or -1 if unplaced.
func (r *Region) ZoneOfPage(i int) int { return int(r.zones[i]) }

// ResidentPages returns how many pages are mapped.
func (r *Region) ResidentPages() int {
	n := 0
	for _, m := range r.resident {
		if m {
			n++
		}
	}
	return n
}

// AddressSpace is the per-environment view of memory: a paging policy, a
// page size, a placement policy, and fault accounting.
type AddressSpace struct {
	Machine   *machine.Machine
	Policy    PagingPolicy
	PageSize  int64
	Placement Placement

	// FaultCostNS is the cost of one minor page fault (trap, allocate,
	// zero, map). Zero under Identity paging.
	FaultCostNS float64

	regions    []*Region
	interleave int

	// Stats.
	Faults      int64
	FaultTimeNS float64
}

// NewAddressSpace creates an address space over m.
func NewAddressSpace(m *machine.Machine, policy PagingPolicy, pageSize int64, place Placement, faultCostNS float64) *AddressSpace {
	if pageSize < MinBlock {
		panic("memsim: page size below 4KiB")
	}
	if policy == Identity {
		faultCostNS = 0
	}
	return &AddressSpace{
		Machine:     m,
		Policy:      policy,
		PageSize:    pageSize,
		Placement:   place,
		FaultCostNS: faultCostNS,
	}
}

// Alloc creates a region of the given size. cpu is the allocating CPU,
// used for PlaceLocal. Under Identity paging all pages are resident (and
// placed, unless first-touch) immediately.
func (a *AddressSpace) Alloc(name string, bytes int64, cpu int) *Region {
	if bytes <= 0 {
		panic(fmt.Sprintf("memsim: Alloc(%q, %d)", name, bytes))
	}
	npages := int((bytes + a.PageSize - 1) / a.PageSize)
	r := &Region{
		Name:     name,
		Bytes:    bytes,
		PageSize: a.PageSize,
		zones:    make([]int16, npages),
		resident: make([]bool, npages),
		space:    a,
	}
	for i := range r.zones {
		r.zones[i] = -1
	}
	switch a.Placement {
	case PlaceLocal:
		z := int16(a.Machine.ZoneOf(cpu))
		for i := range r.zones {
			r.zones[i] = z
		}
	case PlaceInterleave:
		zones := a.Machine.DRAMZones()
		for i := range r.zones {
			r.zones[i] = int16(zones[a.interleave%len(zones)])
			a.interleave++
		}
	case PlaceFirstTouch:
		// zones assigned on touch
	}
	if a.Policy == Identity {
		for i := range r.resident {
			r.resident[i] = true
		}
	}
	a.regions = append(a.regions, r)
	return r
}

// Touch simulates cpu touching [off, off+bytes) of r, faulting unmapped
// pages in and applying first-touch placement. It returns the virtual
// nanoseconds of fault cost incurred.
func (a *AddressSpace) Touch(r *Region, cpu int, off, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	first := int(off / r.PageSize)
	last := int((off + bytes - 1) / r.PageSize)
	if last >= len(r.resident) {
		last = len(r.resident) - 1
	}
	var cost float64
	zone := int16(a.Machine.ZoneOf(cpu))
	for i := first; i <= last; i++ {
		if r.zones[i] < 0 {
			r.zones[i] = zone
		}
		if !r.resident[i] {
			r.resident[i] = true
			a.Faults++
			cost += a.FaultCostNS
		}
	}
	a.FaultTimeNS += cost
	return cost
}

// TouchSlice simulates the slice of the region a given thread touches in a
// block-partitioned parallel loop: thread tid of nthreads touches its
// contiguous 1/nthreads share. Used for first-touch initialization loops.
func (a *AddressSpace) TouchSlice(r *Region, cpu, tid, nthreads int) float64 {
	share := (r.Bytes + int64(nthreads) - 1) / int64(nthreads)
	off := int64(tid) * share
	if off >= r.Bytes {
		return 0
	}
	n := share
	if off+n > r.Bytes {
		n = r.Bytes - off
	}
	return a.Touch(r, cpu, off, n)
}

// RemoteFraction returns the fraction of r's placed pages that are remote
// to the given CPU. Unplaced pages are ignored.
func (a *AddressSpace) RemoteFraction(r *Region, cpu int) float64 {
	local := int16(a.Machine.ZoneOf(cpu))
	placed, remote := 0, 0
	for _, z := range r.zones {
		if z < 0 {
			continue
		}
		placed++
		if z != local {
			remote++
		}
	}
	if placed == 0 {
		return 0
	}
	return float64(remote) / float64(placed)
}

// Madvise promotes a demand-paged region to transparent huge pages (the
// MADV_HUGEPAGE path; both testbeds run with THP set to madvise, §2.2):
// already-resident small pages are collapsed into 2 MiB pages (khugepaged
// work, charged per collapsed page) and future faults map 2 MiB at a
// time. It returns the promotion cost in virtual ns and reports whether
// the region was promoted (identity-mapped and already-huge regions are
// left alone).
func (a *AddressSpace) Madvise(r *Region) (float64, bool) {
	const hugeSize = 2 << 20
	const collapseNSPerPage = 9000 // copy + remap of one 2 MiB page
	if a.Policy != Demand || r.PageSize >= hugeSize {
		return 0, false
	}
	ratio := int(hugeSize / r.PageSize)
	npages := (len(r.zones) + ratio - 1) / ratio
	zones := make([]int16, npages)
	resident := make([]bool, npages)
	var cost float64
	for i := range zones {
		zones[i] = -1
		// A huge page becomes resident (and owes collapse work) if any
		// of its small pages was resident; it inherits the zone of the
		// first placed small page.
		for j := i * ratio; j < (i+1)*ratio && j < len(r.zones); j++ {
			if r.resident[j] && !resident[i] {
				resident[i] = true
				cost += collapseNSPerPage
			}
			if zones[i] < 0 && r.zones[j] >= 0 {
				zones[i] = r.zones[j]
			}
		}
	}
	r.PageSize = hugeSize
	r.zones = zones
	r.resident = resident
	a.FaultTimeNS += cost
	return cost, true
}

// RemoteFractionSlice returns the fraction of placed pages in thread
// tid's block-partition slice of r that are remote to the given CPU —
// the locality a block-partitioned loop over first-touch data actually
// sees.
func (a *AddressSpace) RemoteFractionSlice(r *Region, cpu, tid, nthreads int) float64 {
	local := int16(a.Machine.ZoneOf(cpu))
	// Partition by byte range, then map to the covering pages: with huge
	// pages many threads share one page, and a page-index partition
	// would leave most threads with an empty slice.
	loB := int64(tid) * r.Bytes / int64(nthreads)
	hiB := int64(tid+1)*r.Bytes/int64(nthreads) - 1
	if hiB < loB {
		hiB = loB
	}
	lo := int(loB / r.PageSize)
	hi := int(hiB / r.PageSize)
	if hi >= len(r.zones) {
		hi = len(r.zones) - 1
	}
	placed, remote := 0, 0
	for i := lo; i <= hi; i++ {
		if r.zones[i] < 0 {
			continue
		}
		placed++
		if r.zones[i] != local {
			remote++
		}
	}
	if placed == 0 {
		return 0
	}
	return float64(remote) / float64(placed)
}

// ZoneSpread returns, for each DRAM zone id, the fraction of r's placed
// pages residing there.
func (a *AddressSpace) ZoneSpread(r *Region) map[int]float64 {
	counts := make(map[int]int)
	placed := 0
	for _, z := range r.zones {
		if z < 0 {
			continue
		}
		counts[int(z)]++
		placed++
	}
	out := make(map[int]float64, len(counts))
	if placed == 0 {
		return out
	}
	for z, c := range counts {
		out[z] = float64(c) / float64(placed)
	}
	return out
}
