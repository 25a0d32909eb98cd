package bench

import (
	"fmt"
	"io"
	"math/rand"

	"github.com/interweaving/komp/internal/exec"
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
		faults      faultPlan
	}
	// Offline times must land inside the loop (~1.25ms at the quick
	// scale) so the team actually shrinks mid-region; a fault after the
	// region ends only dooms idle pool workers.
	scenarios := []scenario{
		{"none", "none", faultPlan{}},
		{"1 CPU off", "cpu-offline@400us:5", faultPlan{offline: []cpuOffline{{400 * sim.Microsecond, 5}}}},
		{"2 CPUs off", "cpu-offline@300us:3;cpu-offline@700us:6",
			faultPlan{offline: []cpuOffline{{300 * sim.Microsecond, 3}, {700 * sim.Microsecond, 6}}}},
		{"lost wakes", "lostwake=0.02", faultPlan{lostWake: 0.02}},
	}

	fmt.Fprintf(w, "Resilience: EP-style OpenMP loop, %d threads, %d chunks of 50us (Resilient ICV on)\n", faultThreads, iters)
	fmt.Fprintf(w, "%-12s %-40s %-10s %9s %9s %10s %10s\n", "scenario", "plan", "checksum", "alive", "injected", "time(ms)", "overhead")

	var baseNS int64
	for i, sc := range scenarios {
		marks, alive, injected, elapsed, err := epUnderFaults(opt.seed(), sc.faults, opt.seed()+int64(i), iters, omp.Options{})
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

// faultPlan is one fault scenario of the resilience and cancellation
// studies: CPUs taken offline at virtual times, a futex wake-loss rate
// and an optional IRQ storm. The printed "plan" column is its label.
type faultPlan struct {
	offline  []cpuOffline
	lostWake float64 // in [0, 1)
	storm    *irqStorm
}

// cpuOffline takes cpu out of service at virtual time at.
type cpuOffline struct {
	at  sim.Time
	cpu int
}

// irqStorm floods cpu with interrupts from at for dur.
type irqStorm struct {
	at, dur sim.Time
	cpu     int
}

// IRQ storm shape: one interrupt every period, each stealing cost from
// the CPU, matching the dedicated-IRQ-line pressure of §5's NIC study.
const (
	stormPeriodNS = 10 * sim.Microsecond
	stormCostNS   = 4 * sim.Microsecond
)

// lostWakeRecheckNS is the futex timed recheck armed with a wake-loss
// rate: a dropped wake stalls its waiter this long instead of hanging it.
const lostWakeRecheckNS = 50_000

// arm schedules p against one run over layer: each offline time calls
// rt.OfflineCPU, the storm steals CPU time from the simulated timeline,
// and a wake-loss rate drops futex wakes, rolled from a stream seeded
// with seed, never from the workload's RNG. Call it once, before the
// simulation runs; the returned count of delivered faults is final when
// the run ends.
func (p faultPlan) arm(layer *exec.SimLayer, rt *omp.Runtime, seed int64) *int64 {
	s := layer.Sim
	injected := new(int64)
	for _, o := range p.offline {
		s.At(o.at, func() {
			*injected++
			rt.OfflineCPU(o.cpu)
		})
	}
	if st := p.storm; st != nil {
		s.At(st.at, func() {
			*injected++
			stormCPU(s, st.cpu, st.dur)
		})
	}
	if p.lostWake > 0 {
		layer.FaultFutex(p.wakeLoss(seed, injected), lostWakeRecheckNS)
	}
	return injected
}

// wakeLoss returns the futex probe of p's wake-loss rate: each call
// draws from its own stream seeded with seed and reports whether to
// drop the wake, counting drops in injected.
func (p faultPlan) wakeLoss(seed int64, injected *int64) func() bool {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_fa17))
	return func() bool {
		if rng.Float64() >= p.lostWake {
			return false
		}
		*injected++
		return true
	}
}

// stormCPU is the IRQ storm: interrupts arrive every stormPeriodNS for
// dur, each stealing stormCostNS of the CPU's timeline — exactly how a
// hardware IRQ preempts whatever compute segment is in flight.
func stormCPU(s *sim.Sim, cpu int, dur sim.Time) {
	end := s.Now() + dur
	var tick func()
	tick = func() {
		c := s.CPU(cpu)
		if c.FreeAt < s.Now() {
			c.FreeAt = s.Now()
		}
		c.FreeAt += stormCostNS
		c.BusyNS += stormCostNS
		if s.Now()+stormPeriodNS < end {
			s.After(stormPeriodNS, tick)
		}
	}
	tick()
}

// epUnderFaults runs the EP-style loop shared by the resilience and
// cancellation studies under a fault plan: iters dynamic chunks of 50us
// on a Resilient team of faultThreads over a bare 16-CPU simulator
// seeded with seed, with plan armed against it (its wake-loss rolls
// seeded with faultSeed). o adds the caller's runtime options. It
// returns how often each chunk ran, the team's surviving width, the
// number of faults injected and the elapsed virtual ns.
func epUnderFaults(seed int64, plan faultPlan, faultSeed int64, iters int, o omp.Options) (marks []int, alive int, injected, elapsed int64, err error) {
	s := sim.New(16, seed)
	layer := exec.NewSimLayer(s, exec.Costs{
		ThreadSpawnNS: 2000, ThreadJoinNS: 300,
		FutexWaitEntryNS: 100, FutexWakeEntryNS: 100,
		FutexWakeLatencyNS: 300, FutexWakeStaggerNS: 30,
		AtomicRMWNS: 20, CacheLineXferNS: 40, MallocNS: 100,
	})
	o.MaxThreads, o.Bind, o.Resilient = faultThreads, true, true
	rt := omp.New(layer, o)
	faults := plan.arm(layer, rt, faultSeed)
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
	return marks, alive, *faults, elapsed, err
}
