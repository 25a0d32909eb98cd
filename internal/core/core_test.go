package core

import (
	"testing"

	"github.com/interweaving/komp/internal/cck"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/virgil"
)

func TestEnvConstructionAllKinds(t *testing.T) {
	m := machine.PHI()
	for _, kind := range []Kind{Linux, RTK, PIK, CCK, LinuxAutoMP} {
		e := New(Config{Machine: m, Kind: kind, Seed: 1, Threads: 8})
		if e.Layer == nil || e.AS == nil {
			t.Fatalf("%v: incomplete env", kind)
		}
		if kind.row().inKernel && e.Kernel == nil {
			t.Fatalf("%v: kernel env without kernel", kind)
		}
		if !kind.row().inKernel && e.Kernel != nil {
			t.Fatalf("%v: user env with kernel", kind)
		}
	}
}

func TestLinuxEnvPagesAndNoise(t *testing.T) {
	e := New(Config{Machine: machine.PHI(), Kind: Linux, Seed: 3, Threads: 4})
	if e.PageSize != 4<<10 {
		t.Fatalf("Linux page size = %d", e.PageSize)
	}
	r := e.AS.Alloc("heap", 1<<20, 0)
	if cost := e.AS.Touch(r, 0, 0, r.Bytes); cost <= 0 {
		t.Fatal("Linux must charge demand-paging faults")
	}
	elapsed, err := e.Layer.Run(func(tc exec.TC) { tc.Charge(50_000_000) })
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 50_000_000 {
		t.Fatal("Linux noise missing")
	}
}

func TestKernelEnvNoFaultsBigPages(t *testing.T) {
	e := New(Config{Machine: machine.PHI(), Kind: RTK, Seed: 3, Threads: 8})
	if e.PageSize != 1<<30 {
		t.Fatalf("RTK page size = %d, want 1GiB identity", e.PageSize)
	}
	r := e.AS.Alloc("static", 1<<30, 0)
	if cost := e.AS.Touch(r, 0, 0, r.Bytes); cost != 0 {
		t.Fatal("identity paging must not fault")
	}
	if !e.BootImageStatics {
		t.Fatal("RTK statics live in the boot image")
	}
}

func TestPIKHasNoBootImageStatics(t *testing.T) {
	e := New(Config{Machine: machine.PHI(), Kind: PIK, Seed: 1, Threads: 8,
		BootImageBytes: 1 << 30})
	if e.BootImageStatics {
		t.Fatal("PIK must not claim boot-image statics")
	}
	if e.Kernel.BootImage() != nil {
		t.Fatal("PIK must not link statics into the kernel image (§6.2: PIK does not have this issue)")
	}
}

func TestFirstTouchKicksInAt24CoresOn8XEON(t *testing.T) {
	m := machine.XEON8()
	low := New(Config{Machine: m, Kind: RTK, Seed: 1, Threads: 16})
	if low.FirstTouch {
		t.Fatal("below 24 cores Nautilus uses immediate allocation")
	}
	high := New(Config{Machine: m, Kind: RTK, Seed: 1, Threads: 48})
	if !high.FirstTouch {
		t.Fatal("24+ cores must enable first-touch at 2MiB (§6.3)")
	}
	if high.PageSize != 2<<20 {
		t.Fatalf("first-touch page size = %d", high.PageSize)
	}
	phi := New(Config{Machine: machine.PHI(), Kind: RTK, Seed: 1, Threads: 64})
	if phi.FirstTouch {
		t.Fatal("single-socket PHI never needs the first-touch extension")
	}
}

func TestMultiplierComponents(t *testing.T) {
	m := machine.PHI()
	prof := cck.MemProfile{
		WorkingSetBytes:  1 << 30,
		TLBPressure:      0.4,
		StaticLayoutFrac: 0.5,
		MemBoundFrac:     0.6,
	}
	lin := New(Config{Machine: m, Kind: Linux, Seed: 1, Threads: 64})
	rtk := New(Config{Machine: m, Kind: RTK, Seed: 1, Threads: 64})
	pik := New(Config{Machine: m, Kind: PIK, Seed: 1, Threads: 64})

	ml := lin.Multiplier(prof, 0)
	mr := rtk.Multiplier(prof, 0)
	mp := pik.Multiplier(prof, 0)
	if !(ml > mp && mp > mr) {
		t.Fatalf("multipliers: linux %v > pik %v > rtk %v expected", ml, mp, mr)
	}
	if mr != 1.0 {
		t.Fatalf("RTK multiplier = %v, want 1.0 (all overheads removed)", mr)
	}
	// NUMA term only with remote accesses.
	if rtk.Multiplier(prof, 0.5) <= mr {
		t.Fatal("remote accesses must add overhead")
	}
}

func TestOMPRuntimeRunsInEveryOMPEnv(t *testing.T) {
	for _, kind := range []Kind{Linux, RTK, PIK} {
		e := New(Config{Machine: machine.PHI(), Kind: kind, Seed: 1, Threads: 8})
		rt := e.OMPRuntime()
		total := 0
		_, err := e.Layer.Run(func(tc exec.TC) {
			rt.Parallel(tc, 8, func(w *omp.Worker) {
				w.ForEach(0, 64, omp.ForOpt{Sched: omp.Static}, func(i int) {
					w.Critical("", func() { total++ })
				})
			})
			rt.Close(tc)
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if total != 64 {
			t.Fatalf("%v: total = %d", kind, total)
		}
	}
}

func TestCCKRefusesOMPRuntime(t *testing.T) {
	e := New(Config{Machine: machine.PHI(), Kind: CCK, Seed: 1, Threads: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("CCK must panic on OMPRuntime (no OpenMP runtime exists there)")
		}
	}()
	e.OMPRuntime()
}

func TestVirgilSelection(t *testing.T) {
	cckEnv := New(Config{Machine: machine.PHI(), Kind: CCK, Seed: 1, Threads: 8})
	if _, ok := cckEnv.Virgil().(*virgil.Kernel); !ok {
		t.Fatal("CCK must use kernel VIRGIL")
	}
	lin := New(Config{Machine: machine.PHI(), Kind: LinuxAutoMP, Seed: 1, Threads: 8})
	if _, ok := lin.Virgil().(*virgil.User); !ok {
		t.Fatal("Linux AutoMP must use user VIRGIL")
	}
}

func TestCCKVirgilExecutesCompiledProgram(t *testing.T) {
	e := New(Config{Machine: machine.PHI(), Kind: CCK, Seed: 1, Threads: 8})
	l := &cck.Loop{Name: "l", N: 1024, CostNS: 1500,
		Effects: []cck.Effect{{Obj: "a", Mode: cck.Write, Pattern: cck.Disjoint}},
		Pragma:  &cck.Pragma{Kind: cck.PragmaParallelFor, Independent: true}}
	p := &cck.Program{Name: "p", Funcs: []*cck.Function{{Name: "f", Body: []cck.Node{l}}}}
	comp, err := cck.Compile(p, cck.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	v := e.Virgil()
	elapsed, err := e.Layer.Run(func(tc exec.TC) {
		v.Start(tc)
		comp.RunVirgil(tc, v, e.Scale(0))
		v.Stop(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	serial := int64(1024 * 1500)
	if elapsed >= serial {
		t.Fatalf("no speedup: %d vs serial %d", elapsed, serial)
	}
}

func TestKindStrings(t *testing.T) {
	if Linux.String() != "linux-omp" || CCK.String() != "nk-automp" {
		t.Fatal("kind strings changed")
	}
	if !RTK.row().inKernel || Linux.row().inKernel {
		t.Fatal("inKernel wrong")
	}
}
