package bench

import (
	"fmt"
	"io"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/fault"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/mpi"
	"github.com/interweaving/komp/internal/multikernel"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/sim"
)

// AblationFaults is the resilience study: the three recovery mechanisms
// (MPI retransmission, OpenMP team shrink, multikernel reboot-and-rerun)
// each driven by a seeded fault plan, reporting completion and
// virtual-time overhead against the fault-free baseline. Every number is
// virtual-time derived, so the whole report is byte-identical across
// runs with the same seed.
func AblationFaults(w io.Writer, opt Options) error {
	if err := faultsMPI(w, opt); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := faultsOMP(w, opt); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return faultsMultikernel(w, opt)
}

// faultsMPI runs a CG-style iterative solve (ring halo exchange + an
// Allreduce residual per iteration) across a sweep of NIC frame-drop
// rates. The reliable transport (seq/ack/retransmit with exponential
// backoff) must complete every lossy run; rate 1.0 exhausts the retry
// budget and must fail with a clean error instead of hanging.
func faultsMPI(w io.Writer, opt Options) error {
	m := machine.PHI()
	const nodes = 4
	iters := 20
	if opt.Quick {
		iters = 5
	}
	plans := []string{"none", "drop=0.01", "drop=0.05", "drop=0.10", "drop=1"}

	fmt.Fprintf(w, "Resilience: CG-style MPI solve, %d nodes on PHI, %d iterations (16KiB halo + Allreduce per iter)\n", nodes, iters)
	fmt.Fprintf(w, "%-12s %-16s %10s %10s %8s %8s\n", "plan", "completed", "time(ms)", "overhead", "dropped", "retx")

	var baseNS int64
	for i, planStr := range plans {
		plan, err := fault.Parse(planStr)
		if err != nil {
			return err
		}
		plan.Seed = opt.seed() + int64(i)
		var eng *fault.Engine
		cfg := mpi.Config{
			Machine: m, Seed: opt.seed(), Nodes: nodes,
			KernelCosts: exec.Costs{ThreadSpawnNS: 2200, FutexWaitEntryNS: 80,
				FutexWakeEntryNS: 80, FutexWakeLatencyNS: 400, MallocNS: 300},
			Retx: mpi.RetxPolicy{TimeoutNS: 20_000, Backoff: 2, MaxRetries: 6},
		}
		if plan.DropRate > 0 {
			cfg.Drop = func() bool { return eng.DropFrame() }
		}
		c, err := mpi.New(cfg)
		if err != nil {
			return err
		}
		eng = fault.New(c.Sim, plan)
		elapsed, runErr := c.Run(func(co *mpi.Comm) error {
			r, size := co.Rank(), co.Size()
			for it := 0; it < iters; it++ {
				base := it * 8
				if err := co.Send((r+1)%size, base+1, 16<<10, float64(r)); err != nil {
					return err
				}
				if _, err := co.Recv((r+size-1)%size, base+1); err != nil {
					return err
				}
				if _, err := co.Allreduce(float64(r), 8, func(a, b float64) float64 { return a + b }, base+2); err != nil {
					return err
				}
			}
			return nil
		})
		completed := "yes"
		if runErr != nil {
			completed = "no (link failed)"
		}
		if i == 0 {
			baseNS = elapsed
		}
		overhead := "-"
		if i > 0 && runErr == nil && baseNS > 0 {
			overhead = fmt.Sprintf("%+.1f%%", 100*float64(elapsed-baseNS)/float64(baseNS))
		}
		fmt.Fprintf(w, "%-12s %-16s %10.2f %10s %8d %8d\n",
			planStr, completed, float64(elapsed)/1e6, overhead, c.Stats.Dropped, c.Stats.Retx)
	}
	fmt.Fprintln(w, "(rate 1.0 exhausts the retry budget: the transport latches a clean")
	fmt.Fprintln(w, " link-failure error on every rank instead of hanging the job)")
	return nil
}

// faultsOMP runs an EP-style embarrassingly parallel loop in Resilient
// mode under CPU-offline faults: doomed workers leave the team at safe
// points, unclaimed chunks redistribute over the survivors, and the
// checksum proves every iteration ran exactly once. A lost-wake plan
// exercises the futex timed-recheck recovery on the same workload.
func faultsOMP(w io.Writer, opt Options) error {
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

// faultsMultikernel crashes the Nautilus compartment of a multikernel
// partition mid-job and lets the host-side supervisor reboot and rerun
// under a bounded restart budget; §7's millisecond reboot is what makes
// the loop affordable.
func faultsMultikernel(w io.Writer, opt Options) error {
	jobNS := int64(12_000_000)
	if opt.Quick {
		jobNS = 6_000_000
	}
	type scenario struct {
		label, plan string
	}
	scenarios := []scenario{
		{"none", "none"},
		{"1 crash", "crash@4ms:0"},
		{"2 crashes", "crash@4ms:0;crash@9ms:0"},
		{"crash storm", "crash@2ms:0;crash@5ms:0;crash@8ms:0;crash@11ms:0"},
	}
	fmt.Fprintf(w, "Resilience: multikernel compartment crash + supervised rerun (%.0fms job, restart budget 2)\n", float64(jobNS)/1e6)
	fmt.Fprintf(w, "%-12s %-56s %-10s %8s %10s\n", "scenario", "plan", "completed", "restarts", "time(ms)")

	for i, sc := range scenarios {
		plan, err := fault.Parse(sc.plan)
		if err != nil {
			return err
		}
		plan.Seed = opt.seed() + int64(i)
		part, err := multikernel.Boot(multikernel.Config{
			Machine:          machine.PHI(),
			Seed:             opt.seed(),
			CompartmentCPUs:  16,
			CompartmentBytes: 8 << 30,
			KernelCosts: exec.Costs{ThreadSpawnNS: 2200, FutexWaitEntryNS: 80,
				FutexWakeEntryNS: 80, FutexWakeLatencyNS: 400, MallocNS: 300},
			BootImageBytes: 64 << 20,
		})
		if err != nil {
			return err
		}
		eng := fault.New(part.Sim, plan)
		eng.Arm(fault.Handlers{CompartmentCrash: func(int) { part.Crash() }})
		var res multikernel.SupervisedResult
		var supErr error
		elapsed, err := part.HostLayer.Run(func(tc exec.TC) {
			res, supErr = part.RunSupervised(tc, "job", part.CompCPUs[0],
				multikernel.RestartPolicy{MaxRestarts: 2},
				func(ktc exec.TC) { ktc.Charge(jobNS) })
		})
		if err != nil {
			return err
		}
		completed := "yes"
		if supErr != nil {
			completed = "no (budget)"
		}
		fmt.Fprintf(w, "%-12s %-56s %-10s %8d %10.2f\n",
			sc.label, sc.plan, completed, res.Restarts, float64(elapsed)/1e6)
	}
	fmt.Fprintln(w, "(each recovery is one compartment reboot — milliseconds of virtual")
	fmt.Fprintln(w, " time — plus a rerun from scratch; the storm exhausts the budget and")
	fmt.Fprintln(w, " fails with a clean error rather than restarting forever)")
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
