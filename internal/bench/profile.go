package bench

import (
	"fmt"
	"io"
	"sync/atomic"

	"github.com/interweaving/komp/internal/cck"
	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/ompt"
)

// profileEnvs is the fixed environment order of the profile report.
var profileEnvs = []core.Kind{core.Linux, core.RTK, core.PIK, core.CCK}

// ProfileReport runs a fixed construct-mix workload under every
// environment on the simulated PHI machine with a per-construct profiler
// attached, and renders one breakdown per environment (`kompbench
// -profile`). The three OpenMP environments (Linux, RTK, PIK) run the
// same mix through the runtime; CCK — which has no OpenMP runtime — runs
// a small AutoMP-compiled program on kernel-level VIRGIL. Everything is
// virtual time on the simulator, so the whole report is a pure function
// of the seed: two runs diff byte-for-byte.
func ProfileReport(w io.Writer, opt Options) error {
	m := machine.PHI()
	threads, reps := 16, 4
	if opt.Quick {
		threads, reps = 8, 2
	}
	fmt.Fprintf(w, "Per-construct profile: %s, %d threads, %d reps, seed %d\n",
		m.Name, threads, reps, opt.seed())
	for _, kind := range profileEnvs {
		fmt.Fprintf(w, "\n--- %s ---\n", kind)
		sp := ompt.NewSpine()
		prof := ompt.NewProfile(sp)
		env := core.New(core.Config{Machine: m, Kind: kind, Seed: opt.seed(),
			Threads: threads, Spine: sp})
		var err error
		if env.AutoMP {
			err = runProfileCCK(env, threads, reps)
		} else {
			err = runProfileOMP(env, threads, reps)
		}
		if err != nil {
			return fmt.Errorf("profile %s: %w", kind, err)
		}
		prof.Report(w)
	}
	return nil
}

// runProfileOMP exercises every instrumented construct: the three loop
// schedules, sections, single, ordered, barrier, critical, lock,
// reduction, and an explicit-task burst with taskwait.
func runProfileOMP(env *core.Env, threads, reps int) error {
	rt := env.OMPRuntime()
	lock := rt.NewLock()
	var acc atomic.Int64
	_, err := env.Layer.Run(func(tc exec.TC) {
		for r := 0; r < reps; r++ {
			rt.Parallel(tc, threads, func(w *omp.Worker) {
				w.For(0, threads*8, omp.ForOpt{Sched: omp.Static}, func(lo, hi int) {
					w.TC().Charge(int64(hi-lo) * 400)
				})
				w.For(0, threads*8, omp.ForOpt{Sched: omp.Dynamic, Chunk: 2}, func(lo, hi int) {
					w.TC().Charge(int64(hi-lo) * 400)
				})
				w.For(0, threads*8, omp.ForOpt{Sched: omp.Guided}, func(lo, hi int) {
					w.TC().Charge(int64(hi-lo) * 400)
				})
				w.Sections(false,
					func() { w.TC().Charge(900) },
					func() { w.TC().Charge(600) },
					func() { w.TC().Charge(300) })
				w.Single(false, func() { w.TC().Charge(1200) })
				w.ForOrdered(0, threads*2, omp.ForOpt{Sched: omp.Static},
					func(i int, ordered func(func())) {
						w.TC().Charge(200)
						ordered(func() { acc.Add(1) })
					})
				w.Barrier()
				w.Critical("profile", func() { w.TC().Charge(150) })
				lock.Set(w)
				w.TC().Charge(100)
				lock.Unset(w)
				_ = w.Reduce(omp.ReduceSum, float64(w.ThreadNum()))
				w.Master(func() {
					for i := 0; i < threads*2; i++ {
						w.Task(func(tw *omp.Worker) { tw.TC().Charge(500) })
					}
				})
				w.Taskwait()
			})
		}
		rt.Close(tc)
	})
	return err
}

// profileProgram is the small AutoMP source for the CCK column: a
// parallelizable loop, a reduction loop, and a sequential tail.
func profileProgram(n int) *cck.Program {
	return &cck.Program{Name: "profile", Funcs: []*cck.Function{{
		Name: "main",
		Body: []cck.Node{
			&cck.Loop{Name: "stream", N: n, CostNS: 700,
				Pragma:  &cck.Pragma{Kind: cck.PragmaParallelFor, Independent: true},
				Effects: []cck.Effect{{Obj: "a", Mode: cck.Write, Pattern: cck.Disjoint}},
			},
			&cck.Loop{Name: "dot", N: n, CostNS: 500,
				Pragma: &cck.Pragma{Kind: cck.PragmaParallelFor, Independent: true,
					Reductions: map[string]string{"s": "sum"}},
				Effects: []cck.Effect{
					{Obj: "a", Mode: cck.Read, Pattern: cck.SharedRO},
					{Obj: "s", Mode: cck.ReadWrite, Pattern: cck.ReductionAcc},
				},
			},
			&cck.Seq{Name: "tail", CostNS: 2500},
		},
	}}}
}

func runProfileCCK(env *core.Env, threads, reps int) error {
	compiled, err := cck.Compile(profileProgram(threads*64),
		cck.Options{Workers: threads, TargetChunkNS: 4000})
	if err != nil {
		return err
	}
	compiled.Spine = env.Spine()
	_, err = env.Layer.Run(func(tc exec.TC) {
		if ph, ok := tc.(exec.ProcHolder); ok {
			ph.Proc().SetCPU(-1)
		}
		v := env.Virgil()
		v.Start(tc)
		for r := 0; r < reps; r++ {
			compiled.RunVirgil(tc, v, env.Scale(0))
		}
		v.Stop(tc)
	})
	return err
}
