package komp_test

import (
	"fmt"

	"github.com/interweaving/komp"
)

// The library in one screen: a parallel sum with a worksharing loop and
// a reduction, on real goroutines.
func Example() {
	o := komp.New(4)
	defer o.Close()

	const n = 100000
	var total float64
	o.Parallel(0, func(w *komp.Worker) {
		local := 0.0
		w.For(1, n+1, komp.ForOpt{Sched: komp.Static}, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				local += float64(i)
			}
		})
		sum := w.Reduce(komp.ReduceSum, local)
		w.Master(func() { total = sum })
	})
	fmt.Println(total == n*(n+1)/2)
	// Output: true
}

// The systems laboratory: run a NAS benchmark model under the Linux
// baseline and under RTK (runtime-in-kernel) on the simulated Xeon Phi,
// and observe the paper's speedup. Deterministic: same seed, same
// numbers, on any host.
func Example_environments() {
	m, _ := komp.NewMachine(komp.MachinePHI)

	linux := komp.NewEnvironment(komp.EnvConfig{
		Machine: m, Kind: komp.EnvLinux, Seed: 42, Threads: 8})
	rtk := komp.NewEnvironment(komp.EnvConfig{
		Machine: m, Kind: komp.EnvRTK, Seed: 42, Threads: 8})

	tLinux, _ := komp.RunNAS(linux, "SP", 8)
	tRTK, _ := komp.RunNAS(rtk, "SP", 8)
	fmt.Printf("SP-C on 8 CPUs: RTK is %.1fx faster than Linux\n", tLinux/tRTK)
	// Output: SP-C on 8 CPUs: RTK is 1.6x faster than Linux
}

// Tasks with work stealing: one thread produces, the team consumes, the
// barrier guarantees completion.
func Example_tasks() {
	o := komp.New(4)
	defer o.Close()

	results := make([]int, 16)
	o.Parallel(0, func(w *komp.Worker) {
		w.Master(func() {
			for i := range results {
				i := i
				w.Task(func(*komp.Worker) { results[i] = i * i })
			}
		})
		w.Barrier() // task-aware: all 16 tasks are done here
	})
	fmt.Println(results[3], results[15])
	// Output: 9 225
}

// Task dependences order sibling tasks by the locations they name, and
// a taskgroup waits for all descendants — no manual taskwait chains.
func Example_taskDependences() {
	o := komp.New(4)
	defer o.Close()

	var x, sum int
	o.Parallel(0, func(w *komp.Worker) {
		w.Master(func() {
			w.Taskgroup(func(gw *komp.Worker) {
				gw.TaskWith(komp.TaskOpt{Depend: []komp.Dep{komp.Out(&x)}},
					func(*komp.Worker) { x = 20 })
				gw.TaskWith(komp.TaskOpt{Depend: []komp.Dep{komp.In(&x)}},
					func(*komp.Worker) { sum = x + 1 })
			}) // taskgroup end: both tasks (in dependence order) are done
		})
		w.Barrier()
	})
	fmt.Println(sum)
	// Output: 21
}

// A dependence chain through one location: Out writes it, InOut reads
// and updates it, In reads it — each task waits for the one before.
func Example_inOut() {
	o := komp.New(4)
	defer o.Close()

	var x, got int
	o.Parallel(0, func(w *komp.Worker) {
		w.Master(func() {
			w.TaskWith(komp.TaskOpt{Depend: []komp.Dep{komp.Out(&x)}},
				func(*komp.Worker) { x = 1 })
			w.TaskWith(komp.TaskOpt{Depend: []komp.Dep{komp.InOut(&x)}},
				func(*komp.Worker) { x *= 10 })
			w.TaskWith(komp.TaskOpt{Depend: []komp.Dep{komp.In(&x)}},
				func(*komp.Worker) { got = x + 2 })
		})
		w.Barrier()
	})
	fmt.Println(got)
	// Output: 12
}

// Nested parallelism: with two active levels allowed, each thread of
// the outer team forks a real inner team, sized per level by the
// OMP_NUM_THREADS-style list.
func Example_nested() {
	o := komp.New(4, komp.WithMaxActiveLevels(2), komp.WithNumThreadsList(2, 2))
	defer o.Close()

	var inner int
	var sizes [3]int
	o.Parallel(0, func(w *komp.Worker) {
		w.Parallel(0, func(iw *komp.Worker) {
			iw.Critical("count", func() {
				inner++
				sizes = [3]int{iw.TeamSize(0), iw.TeamSize(1), iw.TeamSize(2)}
			})
		})
	})
	fmt.Println("pool:", o.Threads())
	fmt.Println("team sizes by level:", sizes)
	fmt.Println("inner threads:", inner)
	// Output:
	// pool: 4
	// team sizes by level: [1 2 2]
	// inner threads: 4
}

// sumKernel is a `target teams distribute` reduction over a: each block
// sums its slice of the operand, the league adds the partials. The body
// reads the host slice, which a map(to:) copy equals; the result comes
// back through the league reduction.
func sumKernel(a []float64) komp.Kernel {
	return komp.Kernel{
		Name: "sum", N: len(a), IterNS: 10, BytesPerIter: 8,
		Uses: []any{a},
		Body: func(b komp.Block) float64 {
			s := 0.0
			for _, v := range a[b.Lo:b.Hi] {
				s += v
			}
			return s
		},
		Reduce: func(x, y float64) float64 { return x + y },
	}
}

// ones returns n copies of 1.0.
func ones(n int) []float64 {
	a := make([]float64, n)
	for i := range a {
		a[i] = 1
	}
	return a
}

// Offload: a reduction on the simulated accelerator (4 compute units of
// 8 lanes). With no Chunk set, each team sees four distribute blocks.
func Example_target() {
	o := komp.New(2, komp.WithDevice(4, 8))
	defer o.Close()

	a := ones(1024)
	res, err := o.Target([]komp.Map{komp.MapTo(a)}, sumKernel(a))
	fmt.Println(res.Reduced, res.Blocks, err)
	// Output: 1024 16 <nil>
}

// A structured data region keeps the operand on the device: both
// kernels inside find it present. TargetEnterData/TargetExitData open
// and close the same kind of mapping without a bracket.
func Example_targetData() {
	o := komp.New(2, komp.WithDevice(4, 8))
	defer o.Close()

	a := ones(512)
	maps := []komp.Map{komp.MapTo(a)}
	o.TargetData(maps, func() {
		r1, _ := o.Target(maps, sumKernel(a))
		r2, _ := o.Target(maps, sumKernel(a[:256]))
		fmt.Println(r1.Reduced, r2.Reduced)
	})

	o.TargetEnterData(komp.MapTo(a))
	r3, _ := o.Target(maps, sumKernel(a))
	o.TargetExitData(komp.MapTo(a))
	fmt.Println(r3.Reduced)
	// Output:
	// 512 256
	// 512
}

// Map types decide what crosses the link: map(to:) copies the host data
// to the device when the mapping is created, map(alloc:) only reserves
// device memory. Neither copies anything back, so the host data is left
// as it was.
func Example_mapTypes() {
	o := komp.New(2, komp.WithDevice(4, 8))
	defer o.Close()

	to := []float64{1, 2, 3}
	alloc := []float64{7, 8, 9}
	o.TargetData([]komp.Map{komp.MapTo(to), komp.MapAlloc(alloc)}, func() {})
	fmt.Println(to, alloc)
	// Output: [1 2 3] [7 8 9]
}

// OMP_DEFAULT_DEVICE=-1 is the host fallback: a target region runs on
// the encountering thread over host memory, so the body may update the
// mapped data in place.
func Example_hostFallback() {
	o := komp.New(2, komp.WithDefaultDevice(-1))
	defer o.Close()

	a := []float64{1, 2, 3, 4}
	k := komp.Kernel{Name: "double", N: len(a), IterNS: 10,
		Body: func(b komp.Block) float64 {
			for i := b.Lo; i < b.Hi; i++ {
				a[i] *= 2
			}
			return 0
		}}
	_, err := o.Target([]komp.Map{komp.MapTo(a)}, k)
	fmt.Println(a, err)
	// Output: [2 4 6 8] <nil>
}
