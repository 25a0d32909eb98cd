package omp

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/sim"
)

func allAlgos() []BarrierAlgo {
	return []BarrierAlgo{BarrierFlat, BarrierTree, BarrierHier}
}

// TestBarrierAlgoMatrix crosses every barrier algorithm with both exec
// layers on a workload mixing barriers, worksharing, singles and fused
// reductions, checking construct semantics hold regardless of topology.
func TestBarrierAlgoMatrix(t *testing.T) {
	for _, algo := range allAlgos() {
		algo := algo
		for name, mk := range testLayers() {
			t.Run(algo.String()+"/"+name, func(t *testing.T) {
				opts := Options{MaxThreads: 8, Bind: true, BarrierAlgo: algo}
				run(t, mk, opts, func(rt *Runtime, tc exec.TC) {
					const iters = 256
					hits := make([]atomic.Int32, iters)
					var singles atomic.Int64
					var badReduce atomic.Int64
					rt.Parallel(tc, 8, func(w *Worker) {
						for r := 0; r < 3; r++ {
							w.Barrier()
						}
						w.ForEach(0, iters, ForOpt{Sched: Dynamic, Chunk: 4}, func(i int) {
							hits[i].Add(1)
						})
						w.Single(false, func() { singles.Add(1) })
						if got := w.Reduce(ReduceSum, float64(w.ThreadNum()+1)); got != 36 {
							badReduce.Add(1)
						}
						if got := w.Reduce(ReduceMax, float64(w.ThreadNum())); got != 7 {
							badReduce.Add(1)
						}
					})
					checkCoverage(t, hits, algo.String())
					if singles.Load() != 1 {
						t.Fatalf("singles = %d", singles.Load())
					}
					if badReduce.Load() != 0 {
						t.Fatalf("%d threads saw a wrong fused reduction", badReduce.Load())
					}
				})
			})
		}
	}
}

// TestHierBarrierSmallTeamsAndFanouts checks the arrival tree degenerate
// shapes: teams smaller than one fanout group, odd sizes, and arities
// from binary up, on both layers. The runtime builds fanout-ary trees;
// the test swaps a k-ary one into the cached team before the checked
// region.
func TestHierBarrierSmallTeamsAndFanouts(t *testing.T) {
	for _, fanout := range []int{2, 3, 4, 7} {
		for _, n := range []int{2, 3, 5, 8} {
			fanout, n := fanout, n
			forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
				rt.Parallel(tc, n, func(*Worker) {})
				team := rt.hot.take(n)
				team.bar = newBarTree(n, fanout)
				rt.hot.put(team)
				var count atomic.Int64
				var badSum atomic.Int64
				rt.Parallel(tc, n, func(w *Worker) {
					for r := 0; r < 10; r++ {
						count.Add(1)
						w.Barrier()
						if got := w.Reduce(ReduceSum, 1); got != float64(n) {
							badSum.Add(1)
						}
					}
				})
				if count.Load() != int64(10*n) {
					t.Fatalf("fanout=%d n=%d: %d arrivals", fanout, n, count.Load())
				}
				if badSum.Load() != 0 {
					t.Fatalf("fanout=%d n=%d: %d bad reductions", fanout, n, badSum.Load())
				}
			})
		}
	}
}

// xeon8Costs mirrors the RTK cost table core.kernelCosts builds for the
// 8XEON machine (2.1 GHz, 8 sockets): cross-socket line transfers and
// wake staggers are doubled relative to a single socket.
func xeon8Costs() exec.Costs {
	return exec.Costs{
		ThreadSpawnNS: 2200, ThreadExitNS: 400, ThreadJoinNS: 300,
		FutexWaitEntryNS: 300, FutexWakeEntryNS: 280,
		FutexWakeLatencyNS: 900, FutexWakeStaggerNS: 220,
		AtomicRMWNS: 22, CacheLineXferNS: 90, YieldNS: 140,
		MallocNS: 200,
	}
}

// barrierElapsed192 times `rounds` back-to-back team barriers on the
// simulated 192-CPU 8XEON under the given algorithm.
func barrierElapsed192(t *testing.T, algo BarrierAlgo, rounds int) int64 {
	t.Helper()
	const threads = 192
	layer := exec.NewSimLayer(sim.New(threads, 3), xeon8Costs())
	rt := New(layer, Options{MaxThreads: threads, Bind: true, BarrierAlgo: algo})
	var count atomic.Int64
	elapsed, err := layer.Run(func(tc exec.TC) {
		rt.Parallel(tc, threads, func(w *Worker) {
			for r := 0; r < rounds; r++ {
				count.Add(1)
				w.Barrier()
			}
		})
		rt.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != int64(threads*rounds) {
		t.Fatalf("%v lost arrivals at 192: %d", algo, count.Load())
	}
	return elapsed
}

// TestHierBeatsFlatAtScale is the tentpole acceptance criterion: on the
// simulated 192-core machine, hierarchical arrival must beat the flat
// central-counter barrier by at least 2x in per-barrier overhead. The
// overhead is the marginal cost of extra barrier rounds (EPCC-style:
// one-time pool spawn and region fork/join subtract out).
func TestHierBeatsFlatAtScale(t *testing.T) {
	perRound := func(algo BarrierAlgo) int64 {
		return barrierElapsed192(t, algo, 40) - barrierElapsed192(t, algo, 20)
	}
	flat := perRound(BarrierFlat)
	tree := perRound(BarrierTree)
	hier := perRound(BarrierHier)
	if hier >= tree {
		t.Errorf("hier (%d ns/20 rounds) should beat tree release alone (%d ns) at 192", hier, tree)
	}
	if float64(flat) < 2*float64(hier) {
		t.Fatalf("hier barrier overhead = %d ns per 20 rounds, flat = %d ns: want >= 2x win at 192 cores",
			hier, flat)
	}
}

// TestFusedReduceCheaperThanTwoBarriers: a Reduce must cost measurably
// less than the two flat barriers the old algorithm spent, on the same
// 192-core sweep — under both the flat completer-scan fusion and the
// hierarchical per-node fusion.
func TestFusedReduceCheaperThanTwoBarriers(t *testing.T) {
	const threads = 192
	const rounds = 10
	elapse := func(algo BarrierAlgo, body func(w *Worker)) int64 {
		layer := exec.NewSimLayer(sim.New(threads, 3), xeon8Costs())
		rt := New(layer, Options{MaxThreads: threads, Bind: true, BarrierAlgo: algo})
		elapsed, err := layer.Run(func(tc exec.TC) {
			rt.Parallel(tc, threads, body)
			rt.Close(tc)
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	var bad atomic.Int64
	reduceBody := func(w *Worker) {
		for r := 0; r < rounds; r++ {
			if got := w.Reduce(ReduceSum, 1); got != threads {
				bad.Add(1)
			}
		}
	}
	twoBarriers := func(w *Worker) {
		for r := 0; r < rounds; r++ {
			w.Barrier()
			w.Barrier()
		}
	}
	flatRed := elapse(BarrierFlat, reduceBody)
	flatTwo := elapse(BarrierFlat, twoBarriers)
	if flatRed >= flatTwo {
		t.Errorf("flat fused reduce = %d ns, two flat barriers = %d ns: fusion must win", flatRed, flatTwo)
	}
	hierRed := elapse(BarrierHier, reduceBody)
	if hierRed >= flatTwo {
		t.Errorf("hier fused reduce = %d ns, two flat barriers = %d ns: fusion must win", hierRed, flatTwo)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d wrong reductions at 192", bad.Load())
	}
}

// TestForZeroAllocFastPath asserts the acceptance criterion that no
// worksharing construct allocates (or takes a structural lock) on its
// fast path: on the real layer, a steady-state batch of dynamic nowait
// loops must perform zero heap allocations across the whole team. The
// threads rendezvous around the measured window with a bare spin barrier
// because the team Barrier's futex path legitimately allocates on the
// real layer.
func TestForZeroAllocFastPath(t *testing.T) {
	layer := exec.NewRealLayer(4)
	rt := New(layer, Options{MaxThreads: 4, Bind: true})
	const loops = 50
	var phase atomic.Int32
	var arrived [4]atomic.Int32
	spinSync := func(p int32) {
		if arrived[p].Add(1) == 4 {
			phase.Store(p + 1)
		}
		for phase.Load() <= p {
			runtime.Gosched()
		}
	}
	var mallocs uint64
	_, err := layer.Run(func(tc exec.TC) {
		rt.Parallel(tc, 4, func(w *Worker) {
			var sink atomic.Int64
			body := func(lo, hi int) { sink.Add(int64(hi - lo)) }
			// Warm the dispatch ring past its first lap so every slot has
			// been claimed and retired at least once.
			for l := 0; l < 2*dispatchRingSize; l++ {
				w.For(0, 64, ForOpt{Sched: Dynamic, Chunk: 8, NoWait: true}, body)
			}
			spinSync(0)
			w.Master(func() {
				gcPrev := debug.SetGCPercent(-1)
				defer debug.SetGCPercent(gcPrev)
				var m1, m2 runtime.MemStats
				runtime.ReadMemStats(&m1)
				spinSync(1) // open the measured window
				for l := 0; l < loops; l++ {
					w.For(0, 64, ForOpt{Sched: Dynamic, Chunk: 8, NoWait: true}, body)
				}
				spinSync(2) // close it
				runtime.ReadMemStats(&m2)
				mallocs = m2.Mallocs - m1.Mallocs
				spinSync(3)
			})
			if w.ThreadNum() != 0 {
				spinSync(1)
				for l := 0; l < loops; l++ {
					w.For(0, 64, ForOpt{Sched: Dynamic, Chunk: 8, NoWait: true}, body)
				}
				spinSync(2)
				spinSync(3) // hold off the (allocating) join barrier until m2 is read
			}
			w.Barrier()
		})
		rt.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if mallocs != 0 {
		t.Fatalf("worksharing fast path allocated: %d mallocs across %d loops on 4 threads",
			mallocs, loops)
	}
}

// TestDispatchRingRecyclesWithoutLock floods far more constructs through
// a region than the ring has slots, on both layers: every construct must
// still be claimed, used and retired exactly once.
func TestDispatchRingRecyclesWithoutLock(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		const loops = 10 * dispatchRingSize
		const iters = 16
		hits := make([]atomic.Int32, loops*iters)
		var singles atomic.Int64
		rt.Parallel(tc, 8, func(w *Worker) {
			for l := 0; l < loops; l++ {
				l := l
				w.ForEach(0, iters, ForOpt{Sched: Dynamic, Chunk: 1, NoWait: true}, func(i int) {
					hits[l*iters+i].Add(1)
				})
				w.Single(true, func() { singles.Add(1) })
			}
			w.Barrier()
		})
		checkCoverage(t, hits, "ring recycle")
		if singles.Load() != loops {
			t.Fatalf("singles = %d, want %d", singles.Load(), loops)
		}
	})
}

// TestBarrierEnvICVs: no environment variable reaches the barrier — every
// ICV set at once leaves the hierarchical default — and the algorithm
// names are pinned because the barrier ablation prints them.
func TestBarrierEnvICVs(t *testing.T) {
	env := map[string]string{}
	for name, s := range icvSamples {
		env[name] = s.good
	}
	var o Options
	if err := o.Env(envOf(env)); err != nil {
		t.Fatal(err)
	}
	if o.BarrierAlgo != BarrierHier {
		t.Fatalf("BarrierAlgo = %v after every ICV, want hier", o.BarrierAlgo)
	}
	for _, tt := range []struct {
		algo BarrierAlgo
		s    string
	}{{BarrierHier, "hier"}, {BarrierFlat, "flat"}, {BarrierTree, "tree"}} {
		if tt.algo.String() != tt.s {
			t.Fatalf("%d.String() = %q", tt.algo, tt.algo.String())
		}
	}
}

// TestHierDefaultAndDeterministic: the zero-value Options select the
// hierarchical barrier, and a region full of barriers and reductions
// stays virtual-time deterministic under it.
func TestHierDefaultAndDeterministic(t *testing.T) {
	if New(exec.NewRealLayer(2), Options{}).opts.BarrierAlgo != BarrierHier {
		t.Fatal("zero-value Options must default to the hierarchical barrier")
	}
	one := func() int64 {
		layer := exec.NewSimLayer(sim.New(16, 9), simCosts())
		rt := New(layer, Options{MaxThreads: 16, Bind: true})
		elapsed, err := layer.Run(func(tc exec.TC) {
			rt.Parallel(tc, 16, func(w *Worker) {
				for r := 0; r < 5; r++ {
					w.ForEach(0, 256, ForOpt{Sched: Dynamic, Chunk: 4}, func(i int) {
						w.TC().Charge(300)
					})
					w.Reduce(ReduceSum, float64(w.ThreadNum()))
				}
			})
			rt.Close(tc)
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	if a, b := one(), one(); a != b {
		t.Fatalf("hier barrier non-deterministic on the simulator: %d vs %d", a, b)
	}
}
