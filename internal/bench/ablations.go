package bench

import (
	"fmt"
	"io"

	"github.com/interweaving/komp/internal/cck"
	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/linuxsim"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/multikernel"
	"github.com/interweaving/komp/internal/nas"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/pik"
	"github.com/interweaving/komp/internal/pthread"
)

// Ablations returns the design-choice studies DESIGN.md calls out —
// experiments the paper motivates but does not plot directly.
func Ablations() []Figure {
	return []Figure{
		{"ab-firsttouch", "Ablation: first-touch vs immediate allocation on 8XEON (the §6.3 extension)", AblationFirstTouch},
		{"ab-pthread", "Ablation: PTE port vs customized pthread layer (Fig. 2a vs 2b)", AblationPthread},
		{"ab-chunk", "Ablation: AutoMP latency-aware chunk budget sweep", AblationChunk},
		{"ab-privatization", "Ablation: exploiting privatization directives (the §6.2 future-work fix)", AblationPrivatization},
		{"ab-boot", "Experiment: compartment reboot vs process creation (the §7 deployment argument)", AblationBootTime},
		{"barrier", "Ablation: barrier arrival/release topology — flat vs tree vs hierarchical on 8XEON", AblationBarrier},
		{"tasking", "Ablation: task deque algorithm (mutex vs Chase–Lev) x steal fanout x cutoff on 8XEON", AblationTasking},
		{"affinity", "Ablation: proc_bind x schedule over places, plus steal locality, on 8XEON", AblationAffinity},
		{"faults", "Resilience study: seeded fault injection across the MPI, OpenMP, and multikernel recovery paths", AblationFaults},
		{"cancel", "Ablation: cancellation propagation latency (flat vs tree) and fault-composed graceful abort", AblationCancel},
		{"simcore", "Ablation: DES event-queue algorithm (heap vs timer wheel) — events/sec and trace equality up to 1024 cores", AblationSimcore},
		{"nested", "Ablation: nested parallelism — inner fork/join cost x lease policy, and a two-level plane sweep vs the serialized baseline", AblationNested},
		{"tenancy", "Ablation: multi-tenant service — open-loop latency under placement sharding, admission backpressure, and work-conserving rebalance", AblationTenancy},
		{"offload", "Ablation: device offload — target teams distribute on the simulated accelerator vs host worksharing, with map-traffic hoisting", AblationOffload},
	}
}

// AblationByID resolves an ablation id.
func AblationByID(id string) (Figure, bool) { return lookup(Ablations(), id) }

// AblationFirstTouch quantifies the paper's 8XEON extension (§6.3):
// "first-touch allocation at 2 MB granularity instead of immediate
// allocation... Immediate allocation results in such arrays being
// assigned to a single NUMA zone, lowering performance."
func AblationFirstTouch(w io.Writer, opt Options) error {
	m := machine.XEON8()
	scales := []int{48, 96, 192}
	if opt.Quick {
		scales = []int{96}
	}
	fmt.Fprintln(w, "Ablation: RTK on 8XEON with first-touch vs immediate allocation (seconds; lower is better)")
	scaleHeader(w, fmt.Sprintf("%-8s %-12s", "bench", "policy"), scales)
	for _, name := range []string{"MG", "CG", "FT"} {
		s := nas.SpecByName(name)
		for _, firstTouch := range []bool{true, false} {
			policy := "first-touch"
			if !firstTouch {
				policy = "immediate"
			}
			err := scaleRow(w, fmt.Sprintf("%-8s %-12s", name+"-"+s.Class, policy), scales, func(n int) (float64, error) {
				env := core.New(core.Config{Machine: m, Kind: core.RTK, Seed: opt.seed(),
					Threads: n, ForceImmediate: !firstTouch, BootImageBytes: s.WorkingSetBytes})
				res, err := nas.RunModel(env, s, n)
				return res.Seconds, err
			})
			if err != nil {
				return err
			}
		}
	}
	fmt.Fprintln(w, "\n(immediate allocation parks every page in the allocating CPU's zone;")
	fmt.Fprintln(w, " cross-socket threads then pay remote DRAM latency on every access)")
	return nil
}

// AblationPthread compares the two pthread compatibility layers of
// Fig. 2 — the portable PTE port against the Nautilus-customized
// implementation — on the pthread primitives themselves: barrier rounds,
// uncontended lock/unlock pairs, contended lock handoffs, and condvar
// signal ping-pong, all over the RTK kernel cost table.
func AblationPthread(w io.Writer, opt Options) error {
	m := machine.PHI()
	threads := 16
	if opt.Quick {
		threads = 8
	}
	rounds := 200
	fmt.Fprintf(w, "Ablation: pthread compatibility layer variants, %d kernel threads on PHI (us/op)\n", threads)
	fmt.Fprintf(w, "%-28s %12s %12s\n", "primitive", "pte", "custom")

	type row struct {
		name string
		vals map[string]float64
	}
	rows := []row{
		{"barrier round", map[string]float64{}},
		{"lock/unlock (uncontended)", map[string]float64{}},
		{"lock/unlock (contended)", map[string]float64{}},
		{"cond signal ping-pong", map[string]float64{}},
	}
	for _, impl := range []pthread.Impl{pthread.PTE, pthread.Custom} {
		env := core.New(core.Config{Machine: m, Kind: core.RTK, Seed: opt.seed(), Threads: threads})
		lib := pthread.New(env.Layer, impl)
		var barrierUS, lockUS, contUS, condUS float64
		if _, err := env.Layer.Run(func(tc exec.TC) {
			// Barrier rounds across the team.
			b := lib.NewBarrier(threads)
			t0 := tc.Now()
			var ths []*pthread.Thread
			for i := 0; i < threads; i++ {
				ths = append(ths, lib.Create(tc, pthread.Attr{CPU: i}, func(tc exec.TC) {
					for r := 0; r < rounds; r++ {
						b.Wait(tc)
					}
				}))
			}
			for _, th := range ths {
				lib.Join(tc, th)
			}
			barrierUS = float64(tc.Now()-t0) / float64(rounds) / 1000

			// Uncontended lock/unlock.
			mu := lib.NewMutex()
			t0 = tc.Now()
			for r := 0; r < rounds; r++ {
				mu.Lock(tc)
				mu.Unlock(tc)
			}
			lockUS = float64(tc.Now()-t0) / float64(rounds) / 1000

			// Contended lock handoffs.
			cmu := lib.NewMutex()
			t0 = tc.Now()
			ths = ths[:0]
			for i := 0; i < 4; i++ {
				ths = append(ths, lib.Create(tc, pthread.Attr{CPU: 1 + i}, func(tc exec.TC) {
					for r := 0; r < rounds/4; r++ {
						cmu.Lock(tc)
						tc.Charge(200)
						cmu.Unlock(tc)
					}
				}))
			}
			for _, th := range ths {
				lib.Join(tc, th)
			}
			contUS = float64(tc.Now()-t0) / float64(rounds) / 1000

			// Condvar ping-pong between two threads.
			pm := lib.NewMutex()
			cv := lib.NewCond()
			turn := 0
			t0 = tc.Now()
			pong := lib.Create(tc, pthread.Attr{CPU: 2}, func(tc exec.TC) {
				pm.Lock(tc)
				for r := 0; r < rounds; r++ {
					for turn != 1 {
						cv.Wait(tc, pm)
					}
					turn = 0
					cv.Broadcast(tc)
				}
				pm.Unlock(tc)
			})
			pm.Lock(tc)
			for r := 0; r < rounds; r++ {
				turn = 1
				cv.Broadcast(tc)
				for turn != 0 {
					cv.Wait(tc, pm)
				}
			}
			pm.Unlock(tc)
			lib.Join(tc, pong)
			condUS = float64(tc.Now()-t0) / float64(rounds) / 1000
		}); err != nil {
			return err
		}
		rows[0].vals[impl.String()] = barrierUS
		rows[1].vals[impl.String()] = lockUS
		rows[2].vals[impl.String()] = contUS
		rows[3].vals[impl.String()] = condUS
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %12.3f %12.3f\n", r.name, r.vals["pte"], r.vals["custom"])
	}
	fmt.Fprintln(w, "\n(the PTE port pays generic layering on every operation and builds")
	fmt.Fprintln(w, " barriers from mutex+condvar; the customized layer maps onto kernel")
	fmt.Fprintln(w, " primitives directly — the reason the paper revisited it, §3.3)")
	return nil
}

// AblationChunk sweeps AutoMP's per-task latency budget on the skewed MG
// model: too coarse re-creates OpenMP's imbalance, too fine drowns in
// task overheads.
func AblationChunk(w io.Writer, opt Options) error {
	m := machine.PHI()
	threads := 32
	s := nas.SpecByName("MG")
	prog := s.Program(m, threads, nas.PipeAutoMP)
	type point struct {
		label  string
		budget int64
		minPer int
	}
	points := []point{
		{"5us", 5_000, 4},
		{"50us (default)", 50_000, 4},
		{"5ms", 5_000_000, 4},
		{"50ms", 50_000_000, 4},
		{"~1 task/worker", 78_000_000, 1}, // OpenMP-style coarse partition
		{"single task", 1 << 60, 1},       // fully serial loops
	}
	fmt.Fprintf(w, "Ablation: AutoMP task latency budget, MG-C model, %d workers on PHI\n", threads)
	fmt.Fprintf(w, "%-16s %10s %12s\n", "budget", "tasks", "seconds")
	for _, pt := range points {
		elapsed, tasks, err := runAutoMP(
			core.Config{Machine: m, Seed: opt.seed(), Threads: threads, BootImageBytes: s.WorkingSetBytes},
			prog, cck.Options{Workers: threads, Fuse: true, TargetChunkNS: pt.budget, MinChunksPerWorker: pt.minPer})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s %10d %12.2f\n", pt.label, tasks, float64(elapsed)/1e9)
	}
	return nil
}

// AblationPrivatization turns on the ExploitPrivatization knob — the
// capability whose absence costs LU/BT/SP their parallelism (§6.2) —
// and shows the BT model recovering.
func AblationPrivatization(w io.Writer, opt Options) error {
	m := machine.PHI()
	scales := []int{8, 32, 64}
	if opt.Quick {
		scales = []int{8}
	}
	fmt.Fprintln(w, "Ablation: AutoMP with privatization support (BT-B model on PHI, seconds)")
	scaleHeader(w, fmt.Sprintf("%-24s", "compiler"), scales)
	s := nas.SpecByName("BT")
	for _, exploit := range []bool{false, true} {
		label := "paper AutoMP"
		if exploit {
			label = "with privatization"
		}
		err := scaleRow(w, fmt.Sprintf("%-24s", label), scales, func(n int) (float64, error) {
			elapsed, _, err := runAutoMP(
				core.Config{Machine: m, Seed: opt.seed(), Threads: n, BootImageBytes: s.WorkingSetBytes},
				s.Program(m, n, nas.PipeAutoMP), cck.Options{Workers: n, Fuse: true, ExploitPrivatization: exploit})
			return float64(elapsed) / 1e9, err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// AblationBarrier measures the per-barrier overhead of the three arrival
// topologies — flat counter, tree release, hierarchical combining tree —
// on the RTK kernel cost table across 8XEON scales. The overhead is the
// marginal cost of one extra barrier round (marginalUS). A final line
// shows the payoff of fusing reduction into the arrival tree: one fused
// Reduce against the two flat barriers the classic algorithm pays.
func AblationBarrier(w io.Writer, opt Options) error {
	m := machine.XEON8()
	scales := []int{24, 48, 96, 192}
	if opt.Quick {
		scales = []int{24, 96}
	}

	// marginal is the per-round cost in microseconds of body inside one
	// parallel region under the given barrier topology.
	marginal := func(algo omp.BarrierAlgo, n int, body func(wk *omp.Worker)) (float64, error) {
		return marginalUS(func(rounds int) (int64, error) {
			env := core.New(core.Config{Machine: m, Kind: core.RTK, Seed: opt.seed(),
				Threads: n, OMP: omp.Options{BarrierAlgo: algo}})
			rt := env.OMPRuntime()
			return env.Layer.Run(func(tc exec.TC) {
				rt.Parallel(tc, n, func(wk *omp.Worker) {
					for r := 0; r < rounds; r++ {
						body(wk)
					}
				})
				rt.Close(tc)
			})
		})
	}
	barrier := func(wk *omp.Worker) { wk.Barrier() }
	reduce := func(wk *omp.Worker) { wk.Reduce(omp.ReduceSum, 1) }

	fmt.Fprintln(w, "Ablation: barrier arrival/release topology, RTK on 8XEON (us/barrier, marginal)")
	scaleHeader(w, fmt.Sprintf("%-14s", "algorithm"), scales)
	for _, algo := range []omp.BarrierAlgo{omp.BarrierFlat, omp.BarrierTree, omp.BarrierHier} {
		err := scaleRow(w, fmt.Sprintf("%-14s", algo.String()), scales, func(n int) (float64, error) {
			return marginal(algo, n, barrier)
		})
		if err != nil {
			return err
		}
	}

	top := scales[len(scales)-1]
	fusedUS, err := marginal(omp.BarrierHier, top, reduce)
	if err != nil {
		return err
	}
	flatUS, err := marginal(omp.BarrierFlat, top, barrier)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%-40s %9.2f us\n", fmt.Sprintf("fused Reduce at %d cores (hier)", top), fusedUS)
	fmt.Fprintf(w, "%-40s %9.2f us\n", "classic Reduce = 2 flat barriers + scan", 2*flatUS)
	fmt.Fprintln(w, "\n(flat arrival serializes every thread on one counter line and the")
	fmt.Fprintln(w, " release wakes all waiters from one CPU; the hierarchical tree bounds")
	fmt.Fprintln(w, " both to O(fanout) transfers per node and folds the reduction into")
	fmt.Fprintln(w, " the arrival combine, so a Reduce costs one barrier, not two)")
	return nil
}

// AblationBootTime measures the §7 deployment argument: rebooting the
// Nautilus compartment of a multi-kernel configuration happens "at
// timescales similar to a process creation in Linux". It compares the
// modeled compartment boot against loading a PIK executable and against
// a Linux-analogue process creation (fork+exec-scale costs).
func AblationBootTime(w io.Writer, opt Options) error {
	m := machine.PHI()
	part, err := multikernel.Boot(multikernel.Config{
		Machine:          m,
		Seed:             opt.seed(),
		CompartmentCPUs:  16,
		CompartmentBytes: 8 << 30,
		KernelCosts: exec.Costs{ThreadSpawnNS: 2200, FutexWaitEntryNS: 80,
			FutexWakeEntryNS: 80, FutexWakeLatencyNS: 400, MallocNS: 300,
			SyscallExtraNS: 130},
		BootImageBytes: 64 << 20,
	})
	if err != nil {
		return err
	}
	pik.RegisterEntry("boot_probe", func(tc exec.TC, p *pik.Process, args []string) int { return 0 })
	img := pik.Link(&pik.Image{Name: "probe", Flags: pik.FlagPIE, Entry: "boot_probe",
		TextBytes: make([]byte, 8<<20), BSSSize: 16 << 20, StackSize: 1 << 20})

	var rebootNS, pikNS, linuxProcNS int64
	if _, err := part.HostLayer.Run(func(tc exec.TC) {
		rebootNS = part.Reboot(tc)
		h := part.SpawnInCompartment("pik-load", part.CompCPUs[0], func(ktc exec.TC) {
			t0 := ktc.Now()
			if _, _, err := pik.Run(ktc, part.Kernel, img, nil); err != nil {
				return
			}
			pikNS = ktc.Now() - t0
		})
		h.Join(tc)
		// Linux-analogue process creation: fork + exec + runtime linker +
		// faulting the image in (modeled with the same image volume).
		t0 := tc.Now()
		tc.Charge(1_200_000)                                         // fork+execve+ld.so path
		tc.Charge(int64(len(img)) / 4096 * linuxsim.PageFaultNS / 2) // demand-fault half the image
		linuxProcNS = tc.Now() - t0
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "Experiment: compartment reboot vs process creation (PHI, 16-CPU compartment)")
	fmt.Fprintf(w, "%-44s %10.2f ms\n", "Nautilus compartment reboot (64MiB image)", float64(rebootNS)/1e6)
	fmt.Fprintf(w, "%-44s %10.2f ms\n", "PIK load+exec of a 24MiB executable", float64(pikNS)/1e6)
	fmt.Fprintf(w, "%-44s %10.2f ms\n", "Linux process creation (same executable)", float64(linuxProcNS)/1e6)
	fmt.Fprintln(w, "\n(all three are single-digit milliseconds: cycling the specialized")
	fmt.Fprintln(w, " kernel per job is as cheap as starting a process, §7)")
	return nil
}
