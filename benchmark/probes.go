package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	komp "github.com/interweaving/komp"
	"github.com/interweaving/komp/internal/bench"
	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/sim"
)

// A probe is a short isolated loop over a public function that no
// workload calls directly. Probes run in the traced invocation only and
// feed per-layer metrics, never an end-to-end one.

// probeScale divides every probe's loop counts; the self-tests set it.
type probeScale int

// perCall times reps batches of n calls and returns the median
// nanoseconds per call.
func (sc probeScale) perCall(reps, n int, fn func()) float64 {
	n = max(n/int(sc), 1)
	per := make([]float64, reps)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(start)) / float64(n)
	}
	return median(per)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func runProbes(seed int64, threads int, quick bool, out metricSet) error {
	sc := probeScale(1)
	if quick {
		sc = 4
	}
	sc.probeKomp(threads, out)
	sc.probeTenancySolo(threads, out)
	sc.probeExec(threads, out)
	sc.probeSim(seed, out)
	if err := sc.probeSimLayer(seed, out); err != nil {
		return err
	}
	sc.probeSpine(seed, threads, out)
	for _, id := range []string{"fig7", "fig9", "fig13"} {
		f, ok := bench.ByID(id)
		if !ok {
			return fmt.Errorf("bench.ByID(%q): no such figure", id)
		}
		start := time.Now()
		if err := f.Run(io.Discard, bench.Options{Seed: seed, Quick: true}); err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		out.set("bench."+id+"_quick_s", time.Since(start).Seconds())
	}
	return nil
}

func (sc probeScale) probeKomp(threads int, out metricSet) {
	empty := func(*omp.Worker) {}
	o := komp.New(threads)
	viaKomp := sc.perCall(9, 4000, func() { o.Parallel(threads, empty) })

	layer := exec.NewRealLayer(threads)
	rt := omp.New(layer, omp.Options{MaxThreads: threads, Bind: true})
	tc := layer.TC()
	viaOMP := sc.perCall(9, 4000, func() { rt.Parallel(tc, threads, empty) })
	rt.Close(tc)
	out.set("komp.wrapper_ns", viaKomp-viaOMP)

	// (chunk=1 - chunk=N loop time) / extra claims.
	const iters, bigChunk = 1 << 16, 1 << 10
	arr := make([]int32, iters)
	body := func(i int) { arr[i]++ }
	loop := func(chunk int) float64 {
		return sc.perCall(9, 8, func() {
			o.ParallelFor(threads, 0, iters, omp.ForOpt{Sched: omp.Dynamic, Chunk: chunk}, body)
		})
	}
	out.set("omp.for_dynamic_claim_ns", (loop(1)-loop(bigChunk))/float64(iters-iters/bigChunk))
	o.Close()

	// ROADMAP's row: ParallelFor over 64Ki elements on 4 threads.
	o4 := komp.New(4)
	data := make([]float64, 1<<16)
	inc := func(j int) { data[j]++ }
	pf := func() { o4.ParallelFor(0, 0, len(data), omp.ForOpt{Sched: omp.Static}, inc) }
	out.set("komp.parallel_for_64k_us", sc.perCall(9, 200, pf)/1e3)
	runs := 500 / int(sc)
	before := mallocs()
	for i := 0; i < runs; i++ {
		pf()
	}
	out.set("komp.parallel_for_64k_allocs", float64(mallocs()-before)/float64(runs))
	o4.Close()
}

func (sc probeScale) probeTenancySolo(threads int, out metricSet) {
	svc := newTenantService(threads)
	h := komp.New(threads, komp.WithTenant(svc))
	data := make([]float64, tenantElems)
	each := func(j int) { data[j]++ }
	body := func(w *omp.Worker) { w.ForEach(0, tenantElems, omp.ForOpt{Sched: omp.Static}, each) }
	lat := make([]float64, 4000/int(sc))
	for i := range lat {
		start := time.Now()
		if err := h.Submit(threads, body); err != nil {
			panic("benchmark: solo tenant rejected: " + err.Error())
		}
		lat[i] = float64(time.Since(start))
	}
	out.set("tenancy.submit_solo_us_p50", median(lat[len(lat)/4:])/1e3)
	h.Close()
	svc.Close()
}

func (sc probeScale) probeExec(threads int, out metricSet) {
	layer := exec.NewRealLayer(max(threads, 2))
	tc := layer.TC()

	// Ping-pong: the main thread and a spawned thread wake each other
	// through two futex words.
	rounds := uint32(20000 / int(sc))
	var ping, pong exec.Word
	slept := 0
	before := mallocs()
	start := time.Now()
	h := tc.Spawn("pong", 1, func(tc exec.TC) {
		for i := uint32(1); i <= rounds; i++ {
			for ping.Load() != i {
				tc.FutexWait(&ping, i-1)
			}
			pong.Store(i)
			tc.FutexWake(&pong, 1)
		}
	})
	for i := uint32(1); i <= rounds; i++ {
		ping.Store(i)
		tc.FutexWake(&ping, 1)
		for pong.Load() != i {
			if tc.FutexWait(&pong, i-1) {
				slept++
			}
		}
	}
	elapsed := time.Since(start)
	h.Join(tc)
	allocs := mallocs() - before
	out.set("exec.futex_pingpong_ns", float64(elapsed)/float64(rounds))
	// Both sides sleep about equally often; the main thread's count is
	// doubled for the pair.
	out.set("exec.futex_allocs_per_wait", float64(allocs)/float64(max(2*slept, 1)))

	var idle exec.Word
	out.set("exec.futex_wake_empty_ns", sc.perCall(9, 50000, func() { tc.FutexWake(&idle, 1) }))

	// The same wake from `threads` threads at once, each on its own
	// word: what a lock shared by all futex words costs.
	wakes := 100000 / int(sc)
	words := make([]exec.Word, threads*16) // 16 words apart: separate cache lines
	var ready, done sync.WaitGroup
	gate := make(chan struct{})
	per := make([]float64, threads)
	hs := make([]exec.Handle, threads)
	for t := 0; t < threads; t++ {
		ready.Add(1)
		done.Add(1)
		hs[t] = tc.Spawn("waker", t, func(tc exec.TC) {
			defer done.Done()
			w := &words[t*16]
			ready.Done()
			<-gate
			start := time.Now()
			for i := 0; i < wakes; i++ {
				tc.FutexWake(w, 1)
			}
			per[t] = float64(time.Since(start)) / float64(wakes)
		})
	}
	ready.Wait()
	close(gate)
	done.Wait()
	for _, h := range hs {
		h.Join(tc)
	}
	out.set("exec.futex_wake_empty_contended_ns", median(per))

	out.set("exec.spawn_join_us", sc.perCall(9, 500, func() {
		tc.Spawn("probe", 0, func(exec.TC) {}).Join(tc)
	})/1e3)
}

// storm is an event storm shaped like the simcore ablation's: standing
// far-future timeouts, two tick streams per core that now and then arm
// and cancel an alarm, and an n-wide same-timestamp release every
// 400 ns. It returns events fired per host second.
func storm(seed int64, n int) float64 {
	const horizon = 200_000
	s := sim.New(1, seed)
	noop := func() {}
	for i := 0; i < n; i++ {
		s.At(sim.Time(horizon)+1_000_000+sim.Time(i), noop)
	}
	ticks := make([]func(), 2*n)
	for i := range ticks {
		period := sim.Time(96 + i%67)
		beat := 0
		ticks[i] = func() {
			beat++
			if beat%64 == 0 {
				s.AfterCancel(500, noop)()
			}
			s.After(period, ticks[i])
		}
		s.After(sim.Time(1+i%97), ticks[i])
	}
	var release func()
	release = func() {
		at := s.Now() + 1
		for i := 0; i < n; i++ {
			s.At(at, noop)
		}
		s.After(400, release)
	}
	s.After(400, release)
	start := time.Now()
	s.RunUntil(horizon)
	return float64(s.EventsFired()) / time.Since(start).Seconds()
}

func (sc probeScale) probeSim(seed int64, out metricSet) {
	events := 200_000 / int(sc)
	compute := func(procs int) float64 {
		s := sim.New(procs, seed)
		for p := 0; p < procs; p++ {
			s.Go("p", p, 0, func(p *sim.Proc) {
				for i := 0; i < events/procs; i++ {
					p.Compute(10)
				}
			})
		}
		start := time.Now()
		if err := s.Run(); err != nil {
			panic("benchmark: sim probe: " + err.Error())
		}
		return float64(time.Since(start)) / float64(events)
	}
	of3 := func(fn func() float64) float64 { return median([]float64{fn(), fn(), fn()}) }
	out.set("sim.event_ns", of3(func() float64 { return compute(1) }))
	// Two procs in lock step: every event resumes the other goroutine.
	out.set("sim.proc_handoff_ns", of3(func() float64 { return compute(2) }))
	out.set("sim.storm_events_per_s.192", of3(func() float64 { return storm(seed, 192) }))
	out.set("sim.storm_events_per_s.1024", of3(func() float64 { return storm(seed, 1024) }))
}

func (sc probeScale) probeSimLayer(seed int64, out metricSet) error {
	// A futex round trip between two simulated threads, in host time.
	rounds := uint32(5000 / int(sc))
	env := core.New(core.Config{Machine: machine.PHI(), Kind: core.RTK, Seed: seed, Threads: 2})
	var ping, pong exec.Word
	start := time.Now()
	_, err := env.Layer.Run(func(tc exec.TC) {
		h := tc.Spawn("pong", 1, func(tc exec.TC) {
			for i := uint32(1); i <= rounds; i++ {
				for ping.Load() != i {
					tc.FutexWait(&ping, i-1)
				}
				pong.Store(i)
				tc.FutexWake(&pong, 1)
			}
		})
		for i := uint32(1); i <= rounds; i++ {
			ping.Store(i)
			tc.FutexWake(&ping, 1)
			for pong.Load() != i {
				tc.FutexWait(&pong, i-1)
			}
		}
		h.Join(tc)
	})
	if err != nil {
		return fmt.Errorf("sim futex probe: %w", err)
	}
	out.set("sim.futex_roundtrip_host_ns", float64(time.Since(start))/float64(rounds))

	// ROADMAP's row: one 16-thread barrier round on the simulator.
	barriers := 2000 / int(sc)
	env = core.New(core.Config{Machine: machine.PHI(), Kind: core.RTK, Seed: seed, Threads: 16})
	rt := env.OMPRuntime()
	start = time.Now()
	_, err = env.Layer.Run(func(tc exec.TC) {
		rt.Parallel(tc, 16, func(w *omp.Worker) {
			for i := 0; i < barriers; i++ {
				w.Barrier()
			}
		})
		rt.Close(tc)
	})
	if err != nil {
		return fmt.Errorf("sim barrier probe: %w", err)
	}
	out.set("simlayer.barrier_round_host_us.16", float64(time.Since(start))/float64(barriers)/1e3)
	return nil
}

// probeSpine runs the sync_regions rounds over a bare omp.Runtime with
// and without an ompt.Profile spine attached.
func (sc probeScale) probeSpine(seed int64, threads int, out metricSet) {
	p50 := func(opts omp.Options) float64 {
		s := newSyncDirect(seed, threads, opts)
		defer s.close()
		next := []uint32{0}
		warmUp(workload{warmOps: 200}, s, next)
		return median(runPhase(s, 1, 600*time.Millisecond/time.Duration(sc), nil, next, 8192, nil).lat)
	}
	sp := ompt.NewSpine()
	ompt.NewProfile(sp)
	bare, spined := p50(omp.Options{}), p50(omp.Options{Spine: sp})
	out.set("ompt.spine_overhead_frac", spined/bare-1)
}
