package bench

import (
	"fmt"
	"io"
	"sync"

	"github.com/interweaving/komp/internal/cck"
	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/ompt"
)

// AblationTasking is the tasking design study (`kompbench -ablation
// tasking`): an imbalanced task flood — even-numbered threads each
// produce a burst of short tasks, odd-numbered threads produce nothing
// and live off stealing — swept over the deque algorithm (mutex-guarded
// slice vs lock-free Chase–Lev), the steal fanout (victims probed per
// sweep), and the queue-depth cutoff, on the RTK kernel cost table
// across 8XEON scales. The half-and-half shape keeps every producer's
// deque under simultaneous owner and thief traffic — the regime where
// the deque algorithm is the difference — instead of collapsing all
// contention onto one victim. A second section runs the same flood on
// all four environments. Everything is virtual time on the simulator:
// two runs with one seed diff byte-for-byte.
func AblationTasking(w io.Writer, opt Options) error {
	m := machine.XEON8()
	scales := []int{48, 96, 192}
	if opt.Quick {
		scales = []int{192}
	}
	// taskNS is each task body's compute — short on purpose, EPCC-style:
	// the body must not drown the deque traffic the study measures.
	// tasksPerCore scales the flood with the team so per-thread work
	// stays fixed.
	const taskNS = 500
	tasksPerCore := 24
	if opt.Quick {
		tasksPerCore = 12
	}

	type cell struct {
		algo   omp.TaskDequeAlgo
		fanout int // TaskStealTries; 0 = probe every teammate
		cutoff int
	}
	cells := []cell{
		{omp.DequeMutex, 0, 0},
		{omp.DequeMutex, 4, 0},
		{omp.DequeChaseLev, 0, 0},
		{omp.DequeChaseLev, 4, 0},
		{omp.DequeChaseLev, 1, 0},
		{omp.DequeChaseLev, 0, 8},
	}
	if !opt.Quick {
		cells = append(cells, cell{omp.DequeMutex, 0, 8}, cell{omp.DequeChaseLev, 4, 8})
	}

	fanoutLabel := func(f int) string {
		if f == 0 {
			return "all"
		}
		return fmt.Sprintf("%d", f)
	}

	// run executes the flood in one environment and returns the timed
	// flood interval in virtual ns plus the runtime's tasking counters.
	// The interval is taken inside the region with TC.Now() — warmup
	// barrier, flood, draining barrier — so fork/join overhead (PR 2's
	// own study) stays out of the deque measurement; at 192 cores the
	// fork alone is ~10x the whole flood and would drown the comparison.
	// thiefSpread, when non-nil, receives how many distinct threads
	// stole at least once.
	run := func(kind core.Kind, n int, c cell, thiefSpread *int) (int64, int64, int64, error) {
		var sp *ompt.Spine
		var mu sync.Mutex
		thieves := map[int32]bool{}
		if thiefSpread != nil {
			sp = ompt.NewSpine()
			sp.On(func(ev ompt.Event) {
				mu.Lock()
				thieves[ev.Thread] = true
				mu.Unlock()
			}, ompt.TaskSteal)
		}
		// The sweep order is pinned round-robin: this study isolates the
		// deque algorithm and steal fanout, and its thief-spread check
		// assumes distance-blind victim selection. The locality-aware
		// nearest-first default is the affinity ablation's subject.
		env := core.New(core.Config{Machine: m, Kind: kind, Seed: opt.seed(), Threads: n,
			OMP: omp.Options{TaskDeque: c.algo, TaskStealTries: c.fanout, TaskCutoff: c.cutoff,
				StealOrder: omp.StealRR},
			Spine: sp})
		rt := env.OMPRuntime()
		perProducer := 2 * tasksPerCore
		var t0, t1 int64
		_, err := env.Layer.Run(func(tc exec.TC) {
			rt.Parallel(tc, n, func(wk *omp.Worker) {
				wk.Barrier() // settle the fork before the clock starts
				if wk.ThreadNum() == 0 {
					t0 = wk.TC().Now()
				}
				if wk.ThreadNum()%2 == 0 {
					for i := 0; i < perProducer; i++ {
						wk.Task(func(tw *omp.Worker) { tw.TC().Charge(taskNS) })
					}
				}
				wk.Barrier() // scheduling point: the team drains the flood
				if wk.ThreadNum() == 0 {
					t1 = wk.TC().Now()
				}
			})
			rt.Close(tc)
		})
		if err != nil {
			return 0, 0, 0, err
		}
		if thiefSpread != nil {
			*thiefSpread = len(thieves)
		}
		return t1 - t0, rt.TaskSteals.Load(), rt.TaskCutoffs.Load(), nil
	}

	fmt.Fprintf(w, "Ablation: task deque x steal fanout x cutoff, RTK on 8XEON\n")
	fmt.Fprintf(w, "(half the team produces %d tasks x %d ns each, the other half steals;\n", 2*tasksPerCore, taskNS)
	fmt.Fprintln(w, " tasks/ms — higher is better)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %-7s %-7s", "deque", "fanout", "cutoff")
	for _, n := range scales {
		fmt.Fprintf(w, " %9d", n)
	}
	fmt.Fprintln(w)

	// best tracks each algorithm's default-config throughput at the top
	// scale for the summary comparison line.
	best := map[omp.TaskDequeAlgo]float64{}
	topScale := scales[len(scales)-1]
	for _, c := range cells {
		fmt.Fprintf(w, "%-10s %-7s %-7d", c.algo, fanoutLabel(c.fanout), c.cutoff)
		for _, n := range scales {
			interval, steals, cutoffs, err := run(core.RTK, n, c, nil)
			if err != nil {
				return err
			}
			thr := float64(tasksPerCore*n) / (float64(interval) / 1e6)
			fmt.Fprintf(w, " %9.1f", thr)
			if n == topScale && c.fanout == 0 && c.cutoff == 0 {
				best[c.algo] = thr
			}
			opt.Recorder.Add(Record{Figure: "tasking", Suite: "TASK",
				Construct: "IMBALANCED_TASK_FLOOD", Env: core.RTK.String(), Cores: n,
				Deque: c.algo.String(), StealFanout: c.fanout, Cutoff: c.cutoff,
				TasksPerMS: thr, Steals: steals, Cutoffs: cutoffs})
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nChase–Lev vs mutex at %d cores (fanout all, no cutoff): %.2fx\n",
		topScale, best[omp.DequeChaseLev]/best[omp.DequeMutex])
	if best[omp.DequeChaseLev] <= best[omp.DequeMutex] {
		return fmt.Errorf("tasking ablation: Chase–Lev (%.1f tasks/ms) did not beat the mutex deque (%.1f tasks/ms) at %d cores",
			best[omp.DequeChaseLev], best[omp.DequeMutex], topScale)
	}

	// Steal-distribution check: with the rotating steal start, a failed
	// sweep moves each thief's next probe window, so the flood's steals
	// must spread across the team instead of clustering on the few
	// thieves whose window happens to open on the producer.
	var spread int
	if _, _, _, err := run(core.RTK, topScale, cell{omp.DequeChaseLev, 4, 0}, &spread); err != nil {
		return err
	}
	if spread < topScale/4 {
		return fmt.Errorf("tasking ablation: steal distribution collapsed — only %d of %d threads ever stole", spread, topScale)
	}
	fmt.Fprintf(w, "steal distribution at %d cores (fanout 4): %d/%d threads stole — spread OK\n",
		topScale, spread, topScale)

	// Four-environment section: the same flood through the three OpenMP
	// environments, and the AutoMP/VIRGIL task path for CCK (which has
	// no OpenMP runtime — its compiler-generated chunks are its tasks).
	envThreads := 16
	if opt.Quick {
		envThreads = 8
	}
	pm := machine.PHI()
	fmt.Fprintf(w, "\nSame flood on every environment (%s, %d threads; ms)\n", pm.Name, envThreads)
	for _, kind := range []core.Kind{core.Linux, core.RTK, core.PIK} {
		env := core.New(core.Config{Machine: pm, Kind: kind, Seed: opt.seed(), Threads: envThreads})
		rt := env.OMPRuntime()
		total := tasksPerCore * envThreads
		elapsed, err := env.Layer.Run(func(tc exec.TC) {
			rt.Parallel(tc, envThreads, func(wk *omp.Worker) {
				if wk.ThreadNum()%2 == 0 {
					for i := 0; i < 2*tasksPerCore; i++ {
						wk.Task(func(tw *omp.Worker) { tw.TC().Charge(taskNS) })
					}
				}
				wk.Barrier()
			})
			rt.Close(tc)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %10.3f\n", kind, float64(elapsed)/1e6)
		opt.Recorder.Add(Record{Figure: "tasking", Suite: "TASK", Construct: "ENV_TASK_FLOOD",
			Env: kind.String(), Cores: envThreads, Deque: omp.DequeChaseLev.String(),
			TasksPerMS: float64(total) / (float64(elapsed) / 1e6)})
	}
	{
		elapsed, tasks, err := taskFloodCCK(pm, envThreads, tasksPerCore, taskNS, opt.seed())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %10.3f  (%d VIRGIL tasks)\n", core.CCK, float64(elapsed)/1e6, tasks)
		opt.Recorder.Add(Record{Figure: "tasking", Suite: "TASK", Construct: "ENV_TASK_FLOOD",
			Env: core.CCK.String(), Cores: envThreads,
			TasksPerMS: float64(tasks) / (float64(elapsed) / 1e6)})
	}
	fmt.Fprintln(w, "\n(the mutex deque serializes the producer against every thief on one")
	fmt.Fprintln(w, " lock line and pays an O(n) copy per steal; Chase–Lev keeps the owner's")
	fmt.Fprintln(w, " push/pop off the contended line entirely, so thieves only fight each")
	fmt.Fprintln(w, " other — and the cutoff converts queue pressure into inline execution)")
	return nil
}

// taskFloodCCK runs the tasking flood's CCK analogue: a fine-chunked
// AutoMP loop whose compiler-generated chunks execute as VIRGIL tasks.
func taskFloodCCK(m *machine.Machine, threads, tasksPerCore int, taskNS int64, seed int64) (int64, int, error) {
	prog := &cck.Program{Name: "taskflood", Funcs: []*cck.Function{{
		Name: "main",
		Body: []cck.Node{
			&cck.Loop{Name: "flood", N: threads * tasksPerCore, CostNS: taskNS,
				Pragma:  &cck.Pragma{Kind: cck.PragmaParallelFor, Independent: true},
				Effects: []cck.Effect{{Obj: "a", Mode: cck.Write, Pattern: cck.Disjoint}},
			},
		},
	}}}
	comp, err := cck.Compile(prog, cck.Options{Workers: threads, TargetChunkNS: taskNS})
	if err != nil {
		return 0, 0, err
	}
	tasks := 0
	for _, cf := range comp.Fns {
		for _, r := range cf.Regions {
			tasks += len(r.Chunks)
		}
	}
	env := core.New(core.Config{Machine: m, Kind: core.CCK, Seed: seed, Threads: threads})
	v := env.Virgil()
	elapsed, err := env.Layer.Run(func(tc exec.TC) {
		if ph, ok := tc.(exec.ProcHolder); ok {
			ph.Proc().SetCPU(-1)
		}
		v.Start(tc)
		comp.RunVirgil(tc, v, env.Scale(0))
		v.Stop(tc)
	})
	if err != nil {
		return 0, 0, err
	}
	return elapsed, tasks, nil
}
