package komp

// End-to-end integration tests crossing the full stack, each one acting
// out a path from the paper:
//
//   - RTK: kernel boot -> env vars -> shell command -> in-kernel OpenMP.
//   - PIK: link -> load -> emulated syscalls -> OpenMP inside the
//     kernel-mode process.
//   - CCK: NAS model -> AutoMP -> kernel VIRGIL, faster than Linux+OMP
//     serially.

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/interweaving/komp/internal/cck"
	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/nas"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/pik"
	"github.com/interweaving/komp/internal/rtk"
)

// TestRTKStoryEndToEnd: the §3 path. An application main() becomes a
// kernel shell command; OMP_NUM_THREADS comes from kernel env vars; the
// OpenMP program runs in-kernel and computes a verified result.
func TestRTKStoryEndToEnd(t *testing.T) {
	env := core.New(core.Config{Machine: machine.PHI(), Kind: core.RTK, Seed: 9, Threads: 16})
	k := env.Kernel
	k.Setenv("OMP_NUM_THREADS", "16")
	port, err := rtk.NewPort(k, rtk.Options{OMP: omp.Options{MaxThreads: 16}})
	if err != nil {
		t.Fatal(err)
	}
	var pi float64
	port.RegisterMain("pi", func(tc exec.TC, p *rtk.Port, args []string) error {
		const steps = 200000
		p.Parallel(tc, 0, func(w *omp.Worker) {
			local := 0.0
			w.For(0, steps, omp.ForOpt{Sched: omp.Static}, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					x := (float64(i) + 0.5) / steps
					local += 4 / (1 + x*x)
				}
			})
			total := w.Reduce(omp.ReduceSum, local)
			w.Master(func() { pi = total / steps })
		})
		return nil
	})
	if _, err := k.Layer.Run(func(tc exec.TC) {
		if err := k.RunCommand(tc, "pi"); err != nil {
			t.Error(err)
		}
		port.Close(tc)
	}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi-math.Pi) > 1e-6 {
		t.Fatalf("in-kernel pi = %v", pi)
	}
}

// TestPIKStoryEndToEnd: the §4 path. A "user binary" is linked into the
// image format, loaded by the kernel, inherits the environment through
// the emulated ABI, and runs an OpenMP program whose pool is cloned
// through the emulated clone/futex syscalls' cost domain.
func TestPIKStoryEndToEnd(t *testing.T) {
	var sum atomic.Int64
	pik.RegisterEntry("omp_app", func(tc exec.TC, p *pik.Process, args []string) int {
		threads := 8
		if v, ok := p.Getenv("OMP_NUM_THREADS"); ok && v == "4" {
			threads = 4
		}
		// The unmodified "libomp" running inside the process: same
		// runtime package, kernel-PIK execution layer.
		rt := omp.New(p.K.Layer, omp.Options{MaxThreads: threads, Bind: true})
		rt.Parallel(tc, 0, func(w *omp.Worker) {
			w.ForEach(0, 1000, omp.ForOpt{Sched: omp.Dynamic, Chunk: 16}, func(i int) {
				sum.Add(int64(i))
			})
		})
		rt.Close(tc)
		p.WriteString(tc, "done\n")
		return 0
	})
	env := core.New(core.Config{Machine: machine.PHI(), Kind: core.PIK, Seed: 9, Threads: 8})
	k := env.Kernel
	k.Setenv("OMP_NUM_THREADS", "4")
	img := pik.Link(&pik.Image{Name: "omp-app", Flags: pik.FlagPIE | pik.FlagRedZone,
		Entry: "omp_app", TextBytes: make([]byte, 1<<20), BSSSize: 1 << 20, StackSize: 64 << 10})
	if _, err := k.Layer.Run(func(tc exec.TC) {
		proc, code, err := pik.Run(tc, k, img, []string{"omp-app"})
		if err != nil || code != 0 {
			t.Errorf("pik run: %v code=%d", err, code)
			return
		}
		if !strings.Contains(proc.Stdout.String(), "done") {
			t.Error("program output missing")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 499500 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

// TestCCKStoryEndToEnd: the §5 path. The MG model compiles through
// AutoMP onto kernel VIRGIL and beats the conventional pipeline at the
// same thread count (the Fig. 12 MG row).
func TestCCKStoryEndToEnd(t *testing.T) {
	m := machine.PHI()
	s := nas.SpecByName("MG")
	lin := core.New(core.Config{Machine: m, Kind: core.Linux, Seed: 9, Threads: 16})
	resLin, err := nas.RunModel(lin, s, 16)
	if err != nil {
		t.Fatal(err)
	}
	cckEnv := core.New(core.Config{Machine: m, Kind: core.CCK, Seed: 9, Threads: 16,
		BootImageBytes: s.WorkingSetBytes})
	resCCK, err := nas.RunModel(cckEnv, s, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !(resCCK.Seconds < resLin.Seconds/2) {
		t.Fatalf("CCK MG (%.2fs) must far outrun Linux OpenMP (%.2fs)", resCCK.Seconds, resLin.Seconds)
	}
	// And the compiler must report why: full coverage with fine tasks.
	prog := s.Program(m, 16, nas.PipeAutoMP)
	comp, err := cck.Compile(prog, cck.Options{Workers: 16, Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if comp.ParallelCoverage() < 0.99 {
		t.Fatalf("MG AutoMP coverage = %v", comp.ParallelCoverage())
	}
}
