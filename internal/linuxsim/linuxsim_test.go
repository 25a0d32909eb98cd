package linuxsim

import (
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
)

func TestCostsScaleWithClock(t *testing.T) {
	phi := Costs(machine.PHI())    // 1.3 GHz
	xeon := Costs(machine.XEON8()) // 2.1 GHz
	if phi.FutexWaitEntryNS <= xeon.FutexWaitEntryNS {
		t.Fatal("instruction-path costs must be higher on the slower PHI cores")
	}
	if xeon.CacheLineXferNS <= phi.CacheLineXferNS {
		t.Fatal("cross-socket cacheline transfers must cost more on 8XEON")
	}
}

func TestNoiseStealsTime(t *testing.T) {
	m := machine.PHI()
	// A 100ms compute must be stretched by housekeeping noise.
	l := exec.NewSimLayer(NewSim(m, 3), Costs(m))
	elapsed, err := l.Run(func(tc exec.TC) { tc.Charge(100_000_000) })
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 100_000_000 {
		t.Fatal("Linux noise must stretch compute")
	}
	// ~25 events x ~17us + jitter: well under 1%.
	if float64(elapsed) > 100_000_000*1.02 {
		t.Fatalf("noise unreasonably large: %d", elapsed)
	}
}

func TestNoiseVariesAcrossSeeds(t *testing.T) {
	m := machine.PHI()
	run := func(seed int64) int64 {
		l := exec.NewSimLayer(NewSim(m, seed), Costs(m))
		e, err := l.Run(func(tc exec.TC) { tc.Charge(50_000_000) })
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if run(1) == run(2) {
		t.Fatal("noise must vary across seeds (jitter is the point)")
	}
	if run(5) != run(5) {
		t.Fatal("same seed must reproduce exactly")
	}
}

func TestAddressSpaceIsDemand4K(t *testing.T) {
	as := NewAddressSpace(machine.PHI())
	r := as.Alloc("heap", 64<<10, 0)
	if cost := as.Touch(r, 0, 0, r.Bytes); cost != 16*PageFaultNS {
		t.Fatalf("fault cost = %v, want %v", cost, 16*PageFaultNS)
	}
}

func TestCPU0CarriesMoreNoise(t *testing.T) {
	m := machine.PHI()
	n := NewNoise(m)
	s := NewSim(m, 9)
	rng := s.RNG()
	var cpu0, cpu5 int64
	for i := 0; i < 50; i++ {
		cpu0 += n.Extend(rng, 0, 0, 10_000_000) - 10_000_000
		cpu5 += n.Extend(rng, 5, 0, 10_000_000) - 10_000_000
	}
	if cpu0 <= cpu5 {
		t.Fatalf("CPU0 noise %d must exceed other CPUs' %d (unsteered device IRQs)", cpu0, cpu5)
	}
}
