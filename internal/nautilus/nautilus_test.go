package nautilus

import (
	"sync/atomic"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
)

func bootPHI(t *testing.T) *Kernel {
	t.Helper()
	return Boot(Config{Machine: machine.PHI(), Seed: 1})
}

func TestBootAllocatorsPerZone(t *testing.T) {
	k := Boot(Config{Machine: machine.XEON8(), Seed: 1})
	if len(k.Buddies) != 8 {
		t.Fatalf("buddies = %d, want one per DRAM zone (8)", len(k.Buddies))
	}
	k2 := bootPHI(t)
	if len(k2.Buddies) != 1 {
		t.Fatalf("PHI buddies = %d, want 1 (MCDRAM zone is CPU-less)", len(k2.Buddies))
	}
}

func TestIdentityPagingAtBoot(t *testing.T) {
	k := bootPHI(t)
	if k.AS.Policy != 0 { // memsim.Identity
		t.Fatal("kernel must identity-map")
	}
	if k.AS.PageSize != 1<<30 {
		t.Fatalf("page size = %d, want 1GiB (largest possible)", k.AS.PageSize)
	}
}

func TestFirstTouchConfig(t *testing.T) {
	k := Boot(Config{Machine: machine.XEON8(), Seed: 1, FirstTouch: true})
	if k.AS.PageSize != 2<<20 {
		t.Fatalf("first-touch page size = %d, want 2MiB (§6.3)", k.AS.PageSize)
	}
}

func TestEnvVars(t *testing.T) {
	k := bootPHI(t)
	k.Setenv("OMP_NUM_THREADS", "32")
	if v, ok := k.Getenv("OMP_NUM_THREADS"); !ok || v != "32" {
		t.Fatalf("getenv = %q %v", v, ok)
	}
	if n := k.ParseEnvInt("OMP_NUM_THREADS", 64); n != 32 {
		t.Fatalf("ParseEnvInt = %d, want 32", n)
	}
	if n := k.ParseEnvInt("MISSING", 7); n != 7 {
		t.Fatalf("default = %d, want 7", n)
	}
	if env := k.Environ(); len(env) != 1 || env[0] != "OMP_NUM_THREADS=32" {
		t.Fatalf("environ = %v", env)
	}
}

func TestSysconf(t *testing.T) {
	k := bootPHI(t)
	if n, err := k.Sysconf(ScNProcessorsOnln); err != nil || n != 64 {
		t.Fatalf("nproc = %d, %v", n, err)
	}
	if _, err := k.Sysconf("_SC_BOGUS"); err == nil {
		t.Fatal("unsupported sysconf key must error (limited key set)")
	}
}

func TestShellCommand(t *testing.T) {
	k := bootPHI(t)
	ran := false
	var gotArgs []string
	k.RegisterCommand("bt.B", func(tc exec.TC, k *Kernel, args []string) error {
		ran = true
		gotArgs = args
		return nil
	})
	_, err := k.Layer.Run(func(tc exec.TC) {
		if err := k.RunCommand(tc, "bt.B -n 8"); err != nil {
			t.Error(err)
		}
		if err := k.RunCommand(tc, "nope"); err == nil {
			t.Error("unknown command must fail")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran || len(gotArgs) != 2 || gotArgs[0] != "-n" {
		t.Fatalf("command ran=%v args=%v", ran, gotArgs)
	}
	if cmds := k.Commands(); len(cmds) != 1 || cmds[0] != "bt.B" {
		t.Fatalf("commands = %v", cmds)
	}
}

func TestKAllocChargesAndPlaces(t *testing.T) {
	k := Boot(Config{Machine: machine.XEON8(), Seed: 1,
		Costs: exec.Costs{MallocNS: 500}})
	_, err := k.Layer.Run(func(tc exec.TC) {
		r, err := k.KAlloc(tc, "buf", 1<<20, 30) // CPU 30 -> zone 1
		if err != nil {
			t.Error(err)
			return
		}
		if r.ZoneOfPage(0) != 1 {
			t.Errorf("zone = %d, want 1 (local to allocating CPU)", r.ZoneOfPage(0))
		}
		if tc.Now() < 500 {
			t.Errorf("malloc cost not charged: now=%d", tc.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if k.Buddies[1].BytesLive != 1<<20 {
		t.Fatalf("zone 1 live = %d, want 1MiB", k.Buddies[1].BytesLive)
	}
}

func TestBootImageResident(t *testing.T) {
	k := Boot(Config{Machine: machine.PHI(), Seed: 1, BootImageBytes: 2 << 30})
	img := k.BootImage()
	if img == nil || img.ResidentPages() != img.Pages() {
		t.Fatal("boot image must be fully resident at boot (the MMIO-overlap hazard of §6.2)")
	}
	if k.Buddies[0].BytesLive < 2<<30 {
		t.Fatal("boot image must consume zone 0 memory")
	}
}

func TestHWTLSCloneAndIsolation(t *testing.T) {
	k := bootPHI(t)
	img := &TLSImage{Data: []byte{1, 2, 3}, BSSSize: 2}
	_, err := k.Layer.Run(func(tc exec.TC) {
		k.SetTLS(tc, img)
		if v, _ := k.TLSLoad(tc, 1); v != 2 {
			t.Errorf("TLS data not cloned: %d", v)
		}
		if v, _ := k.TLSLoad(tc, 4); v != 0 {
			t.Errorf("TBSS not zeroed: %d", v)
		}
		k.TLSStore(tc, 0, 99)
		h := tc.Spawn("child", 1, func(tc exec.TC) {
			k.SetTLS(tc, img)
			if v, _ := k.TLSLoad(tc, 0); v != 1 {
				t.Errorf("child TLS saw parent's write: %d (clone must isolate)", v)
			}
		})
		h.Join(tc)
		if v, _ := k.TLSLoad(tc, 0); v != 99 {
			t.Errorf("parent TLS lost its write: %d", v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTLSWithoutFSBase(t *testing.T) {
	k := bootPHI(t)
	_, err := k.Layer.Run(func(tc exec.TC) {
		if _, err := k.TLSLoad(tc, 0); err == nil {
			t.Error("TLS load without FSBASE must fail")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIRQSteering(t *testing.T) {
	k := bootPHI(t)
	k.IRQ.Register(&IRQHandler{Name: "nic", PathNS: 1000})
	_, err := k.Layer.Run(func(tc exec.TC) {
		if _, err := k.IRQ.Fire("nic", 5); err == nil {
			t.Error("unsteered CPU must not receive interrupts")
		}
		if _, err := k.IRQ.Fire("nic", 0); err != nil {
			t.Error(err)
		}
		k.IRQ.Steer(5)
		if _, err := k.IRQ.Fire("nic", 5); err != nil {
			t.Error(err)
		}
		if _, err := k.IRQ.Fire("nic", 0); err == nil {
			t.Error("re-steering must remove CPU 0")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := k.IRQ.Handler("nic")
	if h.Fires != 2 {
		t.Fatalf("fires = %d, want 2", h.Fires)
	}
}

func TestSSECorruptionWithoutLazyFPU(t *testing.T) {
	k := bootPHI(t)
	k.IRQ.Register(&IRQHandler{Name: "vec", PathNS: 500, UsesSSE: true})
	_, err := k.Layer.Run(func(tc exec.TC) {
		th := k.Thread(tc)
		th.FPU = FPUState{1, 2, 3, 4}
		tc.Charge(100)
		k.IRQ.Fire("vec", 0)
		if !th.FPUCorrupted {
			t.Error("SSE-using interrupt without lazy save must corrupt FPU state (§3.4)")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLazyFPUSavesAndIdentifiesOffender(t *testing.T) {
	k := bootPHI(t)
	k.LazyFPU = true
	k.IRQ.Register(&IRQHandler{Name: "vec", PathNS: 500, UsesSSE: true})
	_, err := k.Layer.Run(func(tc exec.TC) {
		th := k.Thread(tc)
		th.FPU = FPUState{1, 2, 3, 4}
		k.IRQ.Fire("vec", 0)
		if th.FPUCorrupted {
			t.Error("lazy FPU must preserve thread state")
		}
		if th.FPU != (FPUState{1, 2, 3, 4}) {
			t.Error("FPU registers changed despite lazy save")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if k.IRQ.LazySaves != 1 || k.IRQ.Offenders["vec"] != 1 {
		t.Fatalf("offender not identified: saves=%d offenders=%v", k.IRQ.LazySaves, k.IRQ.Offenders)
	}
}

func TestNoSSEAttributeSkipsSave(t *testing.T) {
	k := bootPHI(t)
	k.LazyFPU = true
	k.IRQ.Register(&IRQHandler{Name: "vec", PathNS: 500, UsesSSE: true, NoSSE: true})
	_, err := k.Layer.Run(func(tc exec.TC) {
		k.Thread(tc).FPU = FPUState{9, 9, 9, 9}
		k.IRQ.Fire("vec", 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if k.IRQ.LazySaves != 0 {
		t.Fatal("NoSSE handler must not trigger lazy saves (the fix of §3.4)")
	}
}

func TestRedZoneClobberAndISTTrampoline(t *testing.T) {
	// RTK case: code compiled -mno-red-zone is immune.
	k := bootPHI(t)
	k.IRQ.Register(&IRQHandler{Name: "tick", PathNS: 300})
	_, err := k.Layer.Run(func(tc exec.TC) {
		th := k.Thread(tc)
		th.UsesRedZone = false
		k.IRQ.Fire("tick", 0)
		if !th.RedZoneIntact {
			t.Error("-mno-red-zone code must survive on-stack interrupts")
		}
		// PIK binary compiled WITH red zone: clobbered without IST.
		th.UsesRedZone = true
		k.IRQ.Fire("tick", 0)
		if th.RedZoneIntact {
			t.Error("red-zone code must be clobbered without the IST trampoline")
		}
		// With the trampoline (PIK's configuration, §4.2) it survives.
		th.RedZoneIntact = true
		k.ISTTrampoline = true
		k.IRQ.Fire("tick", 0)
		if !th.RedZoneIntact {
			t.Error("IST trampoline must preserve the red zone")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTaskSystemRunsTasks(t *testing.T) {
	k := bootPHI(t)
	done := 0
	_, err := k.Layer.Run(func(tc exec.TC) {
		k.Tasks.Start(tc, []int{1, 2, 3})
		tasks := make([]*KTask, 30)
		for i := range tasks {
			tasks[i] = &KTask{Fn: func(tc exec.TC) {
				tc.Charge(100)
				done++
			}}
		}
		k.Tasks.SubmitBatch(tc, tasks)
		k.Tasks.Stop(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != 30 {
		t.Fatalf("executed %d tasks, want 30", done)
	}
	if k.Tasks.Executed != 30 || k.Tasks.Submitted != 30 {
		t.Fatalf("stats: %d/%d", k.Tasks.Executed, k.Tasks.Submitted)
	}
}

func TestTaskSystemStealsFromImbalance(t *testing.T) {
	k := bootPHI(t)
	_, err := k.Layer.Run(func(tc exec.TC) {
		k.Tasks.Start(tc, []int{1, 2})
		// The batch deals tasks alternately to CPU 1 and CPU 2; every
		// task on CPU 1 is long, so CPU 2's worker drains its own queue
		// early and must steal.
		tasks := make([]*KTask, 40)
		for i := range tasks {
			cost := int64(5000)
			if i%2 == 1 {
				cost = 10
			}
			tasks[i] = &KTask{Fn: func(tc exec.TC) { tc.Charge(cost) }}
		}
		k.Tasks.SubmitBatch(tc, tasks)
		k.Tasks.Stop(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if k.Tasks.Steals == 0 {
		t.Fatal("idle worker never stole despite imbalance")
	}
	if k.Tasks.Executed != 40 {
		t.Fatalf("executed = %d, want 40", k.Tasks.Executed)
	}
}

func TestNautilusNoiseOnlySteeredCPU(t *testing.T) {
	n := NewNautilusNoise(machine.PHI())
	k := bootPHI(t)
	rng := k.Sim.RNG()
	if end := n.Extend(rng, 3, 0, 1_000_000_000); end != 1_000_000_000 {
		t.Fatalf("unsteered CPU extended: %d", end)
	}
	end := n.Extend(rng, 0, 0, 1_000_000_000)
	if end <= 1_000_000_000 {
		t.Fatal("steered CPU must see residual interrupts over 1s")
	}
	// ~100 interrupts x 2us = ~200us on 1s: well under 0.1%.
	if end > 1_000_000_000+400_000 {
		t.Fatalf("noise too large: %d", end-1_000_000_000)
	}
}

func TestPeriodicIRQCancel(t *testing.T) {
	k := bootPHI(t)
	k.IRQ.Register(&IRQHandler{Name: "timer", PathNS: 100})
	cancel := k.IRQ.FirePeriodic("timer", 0, 1000)
	k.Sim.RunUntil(10_500)
	cancel()
	k.Sim.RunUntil(20_000)
	h, _ := k.IRQ.Handler("timer")
	if h.Fires != 10 {
		t.Fatalf("fires = %d, want 10 (cancelled after 10.5us)", h.Fires)
	}
}

func TestTaskSystemStealRaceAfterYield(t *testing.T) {
	// Regression: a steal candidate can be drained while the thief pays
	// the steal cost (the charge yields the simulated CPU). Large batch
	// counts with many workers reproduce the window.
	k := bootPHI(t)
	var done atomic.Int64
	_, err := k.Layer.Run(func(tc exec.TC) {
		k.Tasks.Start(tc, []int{1, 2, 3, 4, 5, 6, 7, 8})
		const n = 5000
		tasks := make([]*KTask, n)
		for i := range tasks {
			tasks[i] = &KTask{Fn: func(tc exec.TC) {
				tc.Charge(100)
				done.Add(1)
			}}
		}
		k.Tasks.SubmitBatch(tc, tasks)
		k.Tasks.Stop(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if done.Load() != 5000 {
		t.Fatalf("done = %d", done.Load())
	}
}
