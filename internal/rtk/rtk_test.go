package rtk

import (
	"strings"
	"sync/atomic"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/nautilus"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/pthread"
)

func bootKernel() *nautilus.Kernel {
	return nautilus.Boot(nautilus.Config{Machine: machine.PHI(), Seed: 1,
		Costs: exec.Costs{ThreadSpawnNS: 1500, FutexWaitEntryNS: 60, FutexWakeEntryNS: 60,
			FutexWakeLatencyNS: 300, AtomicRMWNS: 20, CacheLineXferNS: 40, MallocNS: 80}})
}

func TestBuildConfigValidation(t *testing.T) {
	if err := DefaultBuild().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultBuild()
	bad.RedZone = true
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "red zone") {
		t.Fatalf("red zone must be rejected: %v", err)
	}
	bad2 := DefaultBuild()
	bad2.MemModel = "small"
	if err := bad2.Validate(); err == nil {
		t.Fatal("small memory model must be rejected")
	}
}

func TestPortReadsKernelEnv(t *testing.T) {
	k := bootKernel()
	k.Setenv("OMP_NUM_THREADS", "16")
	k.Setenv("OMP_SCHEDULE", "dynamic,8")
	p, err := NewPort(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.RT.DefaultThreads() != 16 {
		t.Fatalf("threads = %d, want 16 (from kernel env)", p.RT.DefaultThreads())
	}
	if s, c := p.RT.DefaultSchedule(); s != omp.Dynamic || c != 8 {
		t.Fatalf("schedule = %v,%d", s, c)
	}
	if !k.LazyFPU {
		t.Fatal("RTK port must enable lazy FPU (§3.4)")
	}
}

func TestPortClampsThreadsToSysconf(t *testing.T) {
	k := bootKernel()
	k.Setenv("OMP_NUM_THREADS", "100000")
	p, err := NewPort(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.RT.DefaultThreads() > 64 {
		t.Fatalf("threads = %d, must clamp to the 64 CPUs sysconf reports", p.RT.DefaultThreads())
	}
}

func TestMainBecomesShellCommand(t *testing.T) {
	k := bootKernel()
	p, err := NewPort(k, Options{OMP: omp.Options{PthreadImpl: pthread.Custom}})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	p.RegisterMain("ep.C", func(tc exec.TC, port *Port, args []string) error {
		port.Parallel(tc, 8, func(w *omp.Worker) { ran.Add(1) })
		return nil
	})
	_, err = k.Layer.Run(func(tc exec.TC) {
		if err := k.RunCommand(tc, "ep.C -x"); err != nil {
			t.Error(err)
		}
		p.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 8 {
		t.Fatalf("parallel region ran %d bodies", ran.Load())
	}
	if got := k.Commands(); len(got) != 1 || got[0] != "ep.C" {
		t.Fatalf("commands = %v", got)
	}
}

func TestShellWrapperInstallsTLS(t *testing.T) {
	k := bootKernel()
	p, err := NewPort(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.RegisterMain("app", func(tc exec.TC, port *Port, args []string) error {
		if _, err := k.TLSLoad(tc, 0); err != nil {
			t.Error("TLS not installed by the command wrapper")
		}
		return nil
	})
	if _, err := k.Layer.Run(func(tc exec.TC) {
		if err := k.RunCommand(tc, "app"); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsBadBuild(t *testing.T) {
	k := bootKernel()
	bad := DefaultBuild()
	bad.RedZone = true
	if _, err := NewPort(k, Options{Build: &bad}); err == nil {
		t.Fatal("port must reject red-zone builds")
	}
}

func TestOpenMPOnKernelFullCorrectness(t *testing.T) {
	// A representative OpenMP workload running fully in-kernel: loops,
	// reduction, critical, tasks.
	k := bootKernel()
	k.Setenv("OMP_NUM_THREADS", "8")
	p, err := NewPort(k, Options{OMP: omp.Options{PthreadImpl: pthread.PTE}})
	if err != nil {
		t.Fatal(err)
	}
	var dot float64
	var tasks atomic.Int64
	const n = 4096
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i % 7)
		b[i] = float64(i % 5)
	}
	var want float64
	for i := range a {
		want += a[i] * b[i]
	}
	_, err = k.Layer.Run(func(tc exec.TC) {
		p.Parallel(tc, 0, func(w *omp.Worker) {
			local := 0.0
			w.ForEach(0, n, omp.ForOpt{Sched: omp.Guided, Chunk: 8}, func(i int) {
				local += a[i] * b[i]
			})
			got := w.Reduce(omp.ReduceSum, local)
			w.Master(func() { dot = got })
			w.Single(false, func() {
				for j := 0; j < 32; j++ {
					w.Task(func(w *omp.Worker) { tasks.Add(1) })
				}
			})
			w.Barrier()
		})
		p.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if dot != want {
		t.Fatalf("dot = %v, want %v", dot, want)
	}
	if tasks.Load() != 32 {
		t.Fatalf("tasks = %d", tasks.Load())
	}
}
