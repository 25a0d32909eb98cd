package bench

import (
	"fmt"
	"io"
	"strings"

	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/places"
)

// AblationAffinity is the places/affinity design study (`kompbench
// -ablation affinity`): a first-touch array sweep — pass 0 touches every
// element and parks its page in the toucher's NUMA zone, later passes
// re-read the array charging each access the machine's local or remote
// DRAM latency — swept over the binding policy (unbound, close, spread)
// and the loop schedule (static, affinity, dynamic) on the simulated
// 8XEON, with one worker per socket place. Two master regimes bound the
// comparison: a pinned master (every region forks from CPU 0, the
// legacy best case) and a roving master (each region forks from a
// different socket, the way kernel launch contexts drift), where the
// thread-id-keyed static partition silently loses its chunk-to-CPU
// mapping and only the place-rank-keyed affinity schedule keeps pages
// local. A second section drains a single-producer task flood under
// nearest-first vs round-robin steal sweeps and splits the runtime's
// steal counters by socket locality. Everything is virtual time on the
// simulator: two runs with one seed diff byte-for-byte.
func AblationAffinity(w io.Writer, opt Options) error {
	m := machine.XEON8()
	const placesSpec = "sockets"
	threads := m.Sockets // one worker per socket place
	passes := 6
	perThread := 256
	if opt.Quick {
		passes = 4
		perThread = 128
	}
	iters := threads * perThread
	// Each element read is a few cache-line transfers at the owning
	// zone's DRAM latency — enough for memory, not loop bookkeeping, to
	// be what the cells differ in.
	const linesPerElem = 16

	type cell struct {
		bind  places.Bind
		sched omp.Schedule
	}
	cells := []cell{
		{places.BindFalse, omp.Static},
		{places.BindFalse, omp.Affinity},
		{places.BindFalse, omp.Dynamic},
		{places.BindClose, omp.Static},
		{places.BindClose, omp.Affinity},
		{places.BindClose, omp.Dynamic},
		{places.BindSpread, omp.Static},
		{places.BindSpread, omp.Affinity},
	}

	type result struct {
		nsPerPass float64 // virtual ns per compute pass
		localFrac float64 // fraction of compute-pass accesses that hit the local zone
	}

	// run executes the sweep in one cell: pass 0 first-touches the
	// array, the remaining passes re-read it, each pass its own parallel
	// region so the binding policy re-places the team (and an unbound
	// team drifts). With rove, the master hops one socket per region.
	run := func(mach *machine.Machine, spec string, n int, c cell, rove bool) (result, error) {
		env := core.New(core.Config{Machine: mach, Kind: core.RTK, Seed: opt.seed(),
			Threads: n, OMP: omp.Options{PlacesSpec: spec, ProcBind: c.bind}})
		rt := env.OMPRuntime()
		perCPU := mach.CoresPerSocket * mach.SMT()
		zoneOf := make([]int, mach.NumCPUs())
		for c := range zoneOf {
			zoneOf[c] = mach.ZoneOf(c)
		}
		zones := make([]int, n*perThread)
		for i := range zones {
			zones[i] = -1
		}
		// Per-thread tallies; summed after the run (the simulator is
		// deterministic, but disjoint slots are race-proof on any layer).
		local := make([]int64, n)
		total := make([]int64, n)
		chunk := 0
		if c.sched == omp.Dynamic {
			chunk = 16
		}
		var computeNS int64
		_, err := env.Layer.Run(func(tc exec.TC) {
			ph, _ := tc.(exec.ProcHolder)
			for p := 0; p < passes; p++ {
				if rove && ph != nil {
					ph.Proc().SetCPU((p * perCPU) % mach.NumCPUs())
				}
				pass := p
				var t0, t1 int64
				rt.Parallel(tc, n, func(wk *omp.Worker) {
					wk.Barrier() // settle the fork before the clock starts
					if wk.ThreadNum() == 0 {
						t0 = wk.TC().Now()
					}
					id := wk.ThreadNum()
					wk.ForEach(0, len(zones), omp.ForOpt{Sched: c.sched, Chunk: chunk}, func(i int) {
						cpu := wk.TC().CPU()
						z := zones[i]
						if z < 0 { // first touch: the page lands here
							z = zoneOf[cpu]
							zones[i] = z
						}
						wk.TC().Charge(int64(linesPerElem * mach.LatencyNS(cpu, z)))
						if pass > 0 {
							total[id]++
							if zoneOf[cpu] == z {
								local[id]++
							}
						}
					})
					if wk.ThreadNum() == 0 {
						t1 = wk.TC().Now()
					}
				})
				if p > 0 {
					computeNS += t1 - t0
				}
			}
			rt.Close(tc)
		})
		if err != nil {
			return result{}, err
		}
		var loc, tot int64
		for i := 0; i < n; i++ {
			loc += local[i]
			tot += total[i]
		}
		return result{
			nsPerPass: float64(computeNS) / float64(passes-1),
			localFrac: float64(loc) / float64(tot),
		}, nil
	}

	fmt.Fprintf(w, "Ablation: proc_bind x schedule over %q places, RTK on 8XEON (%d threads)\n", placesSpec, threads)
	fmt.Fprintf(w, "(first-touch array of %d pages, %d compute passes; us/pass — lower is\n", iters, passes-1)
	fmt.Fprintln(w, " better — and the fraction of accesses that stayed in the local zone)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s %-10s %21s  %21s\n", "", "", "pinned master", "roving master")
	fmt.Fprintf(w, "%-8s %-10s %12s %8s  %12s %8s\n", "bind", "schedule", "us/pass", "local", "us/pass", "local")

	// grid[rove][cell] feeds the summary comparison below the table.
	grid := map[bool]map[cell]result{false: {}, true: {}}
	for _, c := range cells {
		fmt.Fprintf(w, "%-8s %-10s", c.bind, c.sched)
		for _, rove := range []bool{false, true} {
			res, err := run(m, placesSpec, threads, c, rove)
			if err != nil {
				return err
			}
			grid[rove][c] = res
			fmt.Fprintf(w, " %12.1f %7.0f%%", res.nsPerPass/1000, 100*res.localFrac)
			if !rove {
				fmt.Fprint(w, " ")
			}
			regime := "pinned"
			if rove {
				regime = "roving"
			}
			opt.Recorder.Add(Record{Figure: "affinity", Suite: "AFFINITY",
				Construct: "FIRST_TOUCH_SWEEP_" + strings.ToUpper(regime),
				Schedule:  strings.ToUpper(c.sched.String()), Env: core.RTK.String(),
				Cores: threads, Bind: c.bind.String(), Places: placesSpec,
				Seconds: res.nsPerPass / 1e9, LocalFrac: res.localFrac})
		}
		fmt.Fprintln(w)
	}

	// The acceptance comparison: a bound team on the locality-aware
	// schedule must beat the unbound baseline even when the master
	// roves — that is the whole point of carrying places through the
	// stack.
	bound := grid[true][cell{places.BindClose, omp.Affinity}]
	unbound := grid[true][cell{places.BindFalse, omp.Static}]
	ratio := unbound.nsPerPass / bound.nsPerPass
	fmt.Fprintf(w, "\nroving master: close+affinity vs unbound static: %.2fx faster (%.0f%% vs %.0f%% local)\n",
		ratio, 100*bound.localFrac, 100*unbound.localFrac)
	if ratio < 1.2 {
		return fmt.Errorf("affinity ablation: close+affinity (%.1f us/pass) is not measurably faster than the unbound baseline (%.1f us/pass)",
			bound.nsPerPass/1000, unbound.nsPerPass/1000)
	}

	// Flat-machine control: on single-socket PHI every zone a CPU can
	// first-touch is local, so the machinery must cost nothing.
	pm := machine.PHI()
	phiBound, err := run(pm, "cores", 16, cell{places.BindClose, omp.Affinity}, true)
	if err != nil {
		return err
	}
	phiUnbound, err := run(pm, "cores", 16, cell{places.BindFalse, omp.Static}, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "flat-machine control (PHI, 16 threads, roving): %.2fx — locality immaterial\n",
		phiUnbound.nsPerPass/phiBound.nsPerPass)

	// --- Steal locality: nearest-first vs round-robin victim sweeps ---
	// 48 close-bound threads span two 8XEON sockets — the smallest team
	// where the sweep order has a locality choice to make.
	stealThreads := 48
	tasksPerThread := 16
	if !opt.Quick {
		stealThreads = 96
	}
	const taskNS = 300
	stealRun := func(order omp.StealOrder) (int64, int64, int64, error) {
		env := core.New(core.Config{Machine: m, Kind: core.RTK, Seed: opt.seed(),
			Threads: stealThreads, OMP: omp.Options{PlacesSpec: "cores",
				ProcBind: places.BindClose, StealOrder: order}})
		rt := env.OMPRuntime()
		var t0, t1 int64
		_, err := env.Layer.Run(func(tc exec.TC) {
			rt.Parallel(tc, stealThreads, func(wk *omp.Worker) {
				wk.Barrier()
				if wk.ThreadNum() == 0 {
					t0 = wk.TC().Now()
					for i := 0; i < stealThreads*tasksPerThread; i++ {
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
		return t1 - t0, rt.LocalSteals.Load(), rt.RemoteSteals.Load(), nil
	}

	fmt.Fprintf(w, "\nSteal locality: single-producer flood, close-bound team of %d on 8XEON\n", stealThreads)
	fmt.Fprintf(w, "%-14s %10s %10s %10s %8s\n", "sweep order", "drain us", "local", "remote", "local%")
	for _, order := range []omp.StealOrder{omp.StealNear, omp.StealRR} {
		drainNS, loc, rem, err := stealRun(order)
		if err != nil {
			return err
		}
		frac := 0.0
		if loc+rem > 0 {
			frac = float64(loc) / float64(loc+rem)
		}
		fmt.Fprintf(w, "%-14s %10.1f %10d %10d %7.0f%%\n",
			order, float64(drainNS)/1000, loc, rem, 100*frac)
		opt.Recorder.Add(Record{Figure: "affinity", Suite: "AFFINITY",
			Construct: "STEAL_LOCALITY", Env: core.RTK.String(), Cores: stealThreads,
			Bind: places.BindClose.String(), Places: "cores", Schedule: strings.ToUpper(order.String()),
			Seconds: float64(drainNS) / 1e9, LocalSteals: loc, RemoteSteals: rem, LocalFrac: frac})
	}

	fmt.Fprintln(w, "\n(the thread-id-keyed static partition re-deals blocks whenever the")
	fmt.Fprintln(w, " team's thread numbering shifts under it — a roving master or an")
	fmt.Fprintln(w, " unbound, drifting team — so first-touched pages go remote; dealing")
	fmt.Fprintln(w, " blocks by place rank pins the chunk-to-CPU map to the topology, and")
	fmt.Fprintln(w, " nearest-first stealing keeps the displaced tasks on the same socket)")
	return nil
}
