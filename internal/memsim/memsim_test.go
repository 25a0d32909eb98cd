package memsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/interweaving/komp/internal/machine"
)

func mustBuddy(t *testing.T, size int64) *BuddyAllocator {
	t.Helper()
	b, err := NewBuddy(size)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBuddyRejectsTinyZone(t *testing.T) {
	for _, size := range []int64{0, 1, MinBlock - 1, -4096} {
		if b, err := NewBuddy(size); err == nil {
			t.Fatalf("NewBuddy(%d) = %v, want error", size, b)
		}
	}
	// Exactly one minimum block is the smallest legal zone.
	b, err := NewBuddy(MinBlock)
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != MinBlock {
		t.Fatalf("size = %d, want %d", b.Size(), MinBlock)
	}
}

func TestBuddyAllocFree(t *testing.T) {
	b := mustBuddy(t, 1<<20) // 1 MiB: 256 pages
	off, ok := b.Alloc(4096)
	if !ok {
		t.Fatal("alloc failed")
	}
	if err := b.Free(off); err != nil {
		t.Fatal(err)
	}
	if b.FreeBytes() != 1<<20 {
		t.Fatalf("free bytes = %d, want %d", b.FreeBytes(), 1<<20)
	}
	if b.LargestFree() != 1<<20 {
		t.Fatalf("largest free = %d, want full zone (buddies must merge)", b.LargestFree())
	}
}

func TestBuddySplitsAndMerges(t *testing.T) {
	b := mustBuddy(t, 64<<10) // 16 pages
	var offs []int64
	for i := 0; i < 16; i++ {
		off, ok := b.Alloc(4096)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		offs = append(offs, off)
	}
	if _, ok := b.Alloc(4096); ok {
		t.Fatal("allocated beyond zone size")
	}
	if b.FreeBytes() != 0 {
		t.Fatalf("free bytes = %d, want 0", b.FreeBytes())
	}
	seen := map[int64]bool{}
	for _, off := range offs {
		if seen[off] {
			t.Fatalf("duplicate offset %#x", off)
		}
		seen[off] = true
		if err := b.Free(off); err != nil {
			t.Fatal(err)
		}
	}
	if b.LargestFree() != 64<<10 {
		t.Fatalf("largest free = %d after freeing all, want 64KiB", b.LargestFree())
	}
}

func TestBuddyRoundsToPowerOfTwo(t *testing.T) {
	if got := BlockSize(4097); got != 8192 {
		t.Fatalf("BlockSize(4097) = %d, want 8192", got)
	}
	if got := BlockSize(4096); got != 4096 {
		t.Fatalf("BlockSize(4096) = %d, want 4096", got)
	}
	if got := BlockSize(1); got != 4096 {
		t.Fatalf("BlockSize(1) = %d, want 4096", got)
	}
}

func TestBuddyDoubleFree(t *testing.T) {
	b := mustBuddy(t, 1<<20)
	off, _ := b.Alloc(8192)
	if err := b.Free(off); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(off); err == nil {
		t.Fatal("double free not detected")
	}
}

func TestBuddyNonPowerOfTwoZone(t *testing.T) {
	b := mustBuddy(t, 3<<20) // 3 MiB: 2 MiB + 1 MiB blocks
	if b.FreeBytes() != 3<<20 {
		t.Fatalf("free = %d, want 3MiB", b.FreeBytes())
	}
	off, ok := b.Alloc(2 << 20)
	if !ok {
		t.Fatal("2MiB alloc failed")
	}
	if _, ok := b.Alloc(2 << 20); ok {
		t.Fatal("second 2MiB alloc should fail in 3MiB zone")
	}
	if _, ok := b.Alloc(1 << 20); !ok {
		t.Fatal("1MiB alloc should fit")
	}
	_ = off
}

// Property: after any sequence of allocs and frees, freeing everything
// restores the zone to one maximal free region and FreeBytes == Size.
func TestBuddyPropertyConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := mustBuddy(t, 1<<22) // 4 MiB
		live := map[int64]bool{}
		for i := 0; i < 300; i++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				size := int64(1 + rng.Intn(64*1024))
				if off, ok := b.Alloc(size); ok {
					if live[off] {
						return false // overlapping allocation
					}
					live[off] = true
				}
			} else {
				for off := range live {
					if b.Free(off) != nil {
						return false
					}
					delete(live, off)
					break
				}
			}
			if b.FreeBytes()+b.BytesLive != b.Size() {
				return false
			}
		}
		for off := range live {
			if b.Free(off) != nil {
				return false
			}
		}
		return b.FreeBytes() == b.Size() && b.LargestFree() == b.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityPagingNoFaults(t *testing.T) {
	m := machine.PHI()
	as := NewAddressSpace(m, Identity, 1<<30, PlaceLocal, 2000)
	r := as.Alloc("static", 512<<20, 0)
	if cost := as.Touch(r, 3, 0, r.Bytes); cost != 0 {
		t.Fatalf("identity paging charged %v fault ns", cost)
	}
	if as.Faults != 0 {
		t.Fatalf("identity paging recorded %d faults", as.Faults)
	}
	if r.ResidentPages() != r.Pages() {
		t.Fatal("identity paging must map everything at boot")
	}
}

func TestDemandPagingFaultsOncePerPage(t *testing.T) {
	m := machine.PHI()
	as := NewAddressSpace(m, Demand, 4096, PlaceFirstTouch, 1500)
	r := as.Alloc("heap", 40960, 0) // 10 pages
	cost := as.Touch(r, 0, 0, r.Bytes)
	if as.Faults != 10 {
		t.Fatalf("faults = %d, want 10", as.Faults)
	}
	if cost != 15000 {
		t.Fatalf("cost = %v, want 15000", cost)
	}
	if c := as.Touch(r, 0, 0, r.Bytes); c != 0 {
		t.Fatalf("re-touch charged %v", c)
	}
}

func TestFirstTouchPlacement(t *testing.T) {
	m := machine.XEON8()
	as := NewAddressSpace(m, Demand, 2<<20, PlaceFirstTouch, 1500)
	r := as.Alloc("grid", 8<<20, 0) // 4 huge pages
	// CPU 0 (zone 0) touches first half, CPU 30 (zone 1) second half.
	as.Touch(r, 0, 0, 4<<20)
	as.Touch(r, 30, 4<<20, 4<<20)
	if z := r.ZoneOfPage(0); z != 0 {
		t.Fatalf("page 0 zone = %d, want 0", z)
	}
	if z := r.ZoneOfPage(3); z != 1 {
		t.Fatalf("page 3 zone = %d, want 1", z)
	}
	if f := as.RemoteFraction(r, 0); f != 0.5 {
		t.Fatalf("remote fraction from cpu0 = %v, want 0.5", f)
	}
}

func TestImmediateLocalPlacement(t *testing.T) {
	m := machine.XEON8()
	as := NewAddressSpace(m, Identity, 2<<20, PlaceLocal, 0)
	r := as.Alloc("grid", 8<<20, 50) // allocated from CPU 50 (zone 2)
	for i := 0; i < r.Pages(); i++ {
		if r.ZoneOfPage(i) != 2 {
			t.Fatalf("page %d zone = %d, want 2 (immediate local)", i, r.ZoneOfPage(i))
		}
	}
	// From a remote CPU everything is remote: the paper's 8XEON problem.
	if f := as.RemoteFraction(r, 0); f != 1.0 {
		t.Fatalf("remote fraction = %v, want 1.0", f)
	}
}

func TestInterleavePlacement(t *testing.T) {
	m := machine.XEON8()
	as := NewAddressSpace(m, Identity, 2<<20, PlaceInterleave, 0)
	r := as.Alloc("grid", 16<<20, 0) // 8 pages over 8 zones
	spread := as.ZoneSpread(r)
	if len(spread) != 8 {
		t.Fatalf("interleave hit %d zones, want 8", len(spread))
	}
	for z, f := range spread {
		if f != 0.125 {
			t.Fatalf("zone %d fraction %v, want 0.125", z, f)
		}
	}
}

func TestTouchSliceCoversRegion(t *testing.T) {
	m := machine.PHI()
	as := NewAddressSpace(m, Demand, 4096, PlaceFirstTouch, 1000)
	r := as.Alloc("arr", 1<<20, 0)
	n := 7
	for tid := 0; tid < n; tid++ {
		as.TouchSlice(r, tid%64, tid, n)
	}
	if r.ResidentPages() != r.Pages() {
		t.Fatalf("resident %d/%d after all slices touched", r.ResidentPages(), r.Pages())
	}
}

func TestTLBOverhead(t *testing.T) {
	m := machine.PHI() // 4K TLB reach = 1MiB, 2M reach = 256MiB, 1G reach = 16GiB
	tm := TLBModel{Machine: m}
	if ov := tm.OverheadFraction(512<<10, 0.5, 4096); ov != 0 {
		t.Fatalf("in-reach working set overhead = %v, want 0", ov)
	}
	ov4k := tm.OverheadFraction(1<<30, 0.5, 4096)
	ov2m := tm.OverheadFraction(1<<30, 0.5, 2<<20)
	ov1g := tm.OverheadFraction(1<<30, 0.5, 1<<30)
	if !(ov4k > ov2m) {
		t.Fatalf("4K overhead %v must exceed 2M overhead %v", ov4k, ov2m)
	}
	if ov1g != 0 {
		t.Fatalf("1G pages cover 1GiB working set; overhead = %v, want 0", ov1g)
	}
	if ov4k > 0.5 {
		t.Fatalf("overhead %v exceeds pressure bound", ov4k)
	}
}

// TestBestPageSize: the page size Nautilus's identity paging maps with —
// the machine's largest, 1 GiB on PHI — has the least TLB overhead of
// the machine's page sizes for an 8 GiB working set.
func TestBestPageSize(t *testing.T) {
	m := machine.PHI()
	tm := TLBModel{Machine: m}
	largest := m.TLBs[len(m.TLBs)-1].PageSize
	if largest != 1<<30 {
		t.Fatalf("largest PHI page = %d, want 1GiB", largest)
	}
	best := tm.OverheadFraction(8<<30, 0.5, largest)
	for _, lvl := range m.TLBs {
		if ov := tm.OverheadFraction(8<<30, 0.5, lvl.PageSize); ov < best {
			t.Fatalf("page size %d: overhead %v below the largest page's %v", lvl.PageSize, ov, best)
		}
	}
}

// Property: TLB overhead is monotonically non-increasing in page size and
// bounded by pressure.
func TestTLBPropertyMonotone(t *testing.T) {
	m := machine.XEON8()
	tm := TLBModel{Machine: m}
	f := func(wsKB uint32, pr uint8) bool {
		ws := int64(wsKB%4_000_000)*1024 + 4096
		pressure := float64(pr%101) / 100
		prev := 2.0
		for _, lvl := range m.TLBs {
			ov := tm.OverheadFraction(ws, pressure, lvl.PageSize)
			if ov < 0 || ov > pressure+1e-12 {
				return false
			}
			if ov > prev+1e-12 {
				return false
			}
			prev = ov
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMadvisePromotesToHugePages(t *testing.T) {
	m := machine.PHI()
	as := NewAddressSpace(m, Demand, 4096, PlaceFirstTouch, 1000)
	r := as.Alloc("heap", 8<<20, 0)
	as.Touch(r, 0, 0, 4<<20) // fault in the first half
	cost, ok := as.Madvise(r)
	if !ok || cost <= 0 {
		t.Fatalf("promotion: ok=%v cost=%v", ok, cost)
	}
	if r.PageSize != 2<<20 || r.Pages() != 4 {
		t.Fatalf("region now %d pages of %d bytes", r.Pages(), r.PageSize)
	}
	// First half resident (collapsed), second half still unmapped.
	if r.ResidentPages() != 2 {
		t.Fatalf("resident huge pages = %d, want 2", r.ResidentPages())
	}
	// Future faults are per huge page now.
	faults0 := as.Faults
	as.Touch(r, 0, 4<<20, 4<<20)
	if as.Faults-faults0 != 2 {
		t.Fatalf("huge faults = %d, want 2", as.Faults-faults0)
	}
	// TLB overhead drops with the larger page size.
	tm := TLBModel{Machine: m}
	if tm.OverheadFraction(1<<30, 0.5, 2<<20) >= tm.OverheadFraction(1<<30, 0.5, 4096) {
		t.Fatal("promotion must reduce translation overhead")
	}
}

func TestMadviseNoopOnIdentity(t *testing.T) {
	m := machine.PHI()
	as := NewAddressSpace(m, Identity, 1<<30, PlaceLocal, 0)
	r := as.Alloc("static", 4<<30, 0)
	if _, ok := as.Madvise(r); ok {
		t.Fatal("identity regions must not be 'promoted'")
	}
}
