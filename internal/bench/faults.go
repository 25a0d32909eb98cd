package bench

import (
	"fmt"
	"io"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/fault"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/sim"
)

// AblationFaults is the resilience study: an EP-style embarrassingly
// parallel loop in Resilient mode under CPU-offline faults, reporting
// completion and virtual-time overhead against the fault-free baseline.
// Doomed workers leave the team at safe points, unclaimed chunks
// redistribute over the survivors, and the checksum proves every
// iteration ran exactly once. A lost-wake plan exercises the futex
// timed-recheck recovery on the same workload. Every number is
// virtual-time derived, so the whole report is byte-identical across
// runs with the same seed.
func AblationFaults(w io.Writer, opt Options) error {
	iters := 400
	if opt.Quick {
		iters = 200
	}
	type scenario struct {
		label, plan string
	}
	// Offline times must land inside the loop (~1.25ms at the quick
	// scale) so the team actually shrinks mid-region; a fault after the
	// region ends only dooms idle pool workers.
	scenarios := []scenario{
		{"none", "none"},
		{"1 CPU off", "cpu-offline@400us:5"},
		{"2 CPUs off", "cpu-offline@300us:3;cpu-offline@700us:6"},
		{"lost wakes", "lostwake=0.02"},
	}

	fmt.Fprintf(w, "Resilience: EP-style OpenMP loop, %d threads, %d chunks of 50us (Resilient ICV on)\n", faultThreads, iters)
	fmt.Fprintf(w, "%-12s %-40s %-10s %9s %9s %10s %10s\n", "scenario", "plan", "checksum", "alive", "injected", "time(ms)", "overhead")

	var baseNS int64
	for i, sc := range scenarios {
		plan, err := fault.Parse(sc.plan)
		if err != nil {
			return err
		}
		plan.Seed = opt.seed() + int64(i)
		marks, alive, injected, elapsed, err := epUnderFaults(opt.seed(), plan, iters, omp.Options{})
		if err != nil {
			return err
		}
		done := 0
		for _, m := range marks {
			done += m
		}
		checksum := "ok"
		if done != iters {
			checksum = fmt.Sprintf("BAD (%d/%d)", done, iters)
		}
		if i == 0 {
			baseNS = elapsed
		}
		overhead := "-"
		if i > 0 && baseNS > 0 {
			overhead = fmt.Sprintf("%+.1f%%", 100*float64(elapsed-baseNS)/float64(baseNS))
		}
		fmt.Fprintf(w, "%-12s %-40s %-10s %5d/%-3d %9d %10.2f %10s\n",
			sc.label, sc.plan, checksum, alive, faultThreads, injected, float64(elapsed)/1e6, overhead)
	}
	fmt.Fprintln(w, "(static schedules degrade to exactly-once chunk claiming under the")
	fmt.Fprintln(w, " Resilient ICV; a dying worker completes the barrier its departure")
	fmt.Fprintln(w, " finishes, so the survivors are never left waiting)")
	return nil
}

// faultThreads is the team width of the EP-style fault scenarios.
const faultThreads = 8

// epUnderFaults runs the EP-style loop shared by the resilience and
// cancellation studies under a fault plan: iters dynamic chunks of 50us
// on a Resilient team of faultThreads over a bare 16-CPU simulator
// seeded with seed, with plan armed against it and, for a lost-wake
// plan, the futex timed recheck on. o adds the caller's runtime options.
// It returns how often each chunk ran, the team's surviving width, the
// number of faults injected and the elapsed virtual ns.
func epUnderFaults(seed int64, plan fault.Plan, iters int, o omp.Options) (marks []int, alive int, injected, elapsed int64, err error) {
	s := sim.New(16, seed)
	layer := exec.NewSimLayer(s, exec.Costs{
		ThreadSpawnNS: 2000, ThreadJoinNS: 300,
		FutexWaitEntryNS: 100, FutexWakeEntryNS: 100,
		FutexWakeLatencyNS: 300, FutexWakeStaggerNS: 30,
		AtomicRMWNS: 20, CacheLineXferNS: 40, MallocNS: 100,
	})
	o.MaxThreads, o.Bind, o.Resilient = faultThreads, true, true
	rt := omp.New(layer, o)
	eng := fault.New(s, plan)
	eng.Arm(fault.Handlers{CPUOffline: func(cpu int) { rt.OfflineCPU(cpu) }})
	if plan.LostWakeRate > 0 {
		// Dropped wakes stall the waiter until its 50us timed recheck
		// fires; the run completes slower instead of hanging.
		layer.FaultFutex(eng.LoseWake, 50_000)
	}
	marks = make([]int, iters)
	elapsed, err = layer.Run(func(tc exec.TC) {
		rt.Parallel(tc, faultThreads, func(wk *omp.Worker) {
			wk.ForEach(0, iters, omp.ForOpt{Sched: omp.Dynamic, Chunk: 2}, func(it int) {
				wk.TC().Charge(50_000)
				wk.Atomic(func() { marks[it]++ })
			})
			alive = wk.NumAlive()
		})
		rt.Close(tc)
	})
	return marks, alive, eng.InjectedTotal(), elapsed, err
}
