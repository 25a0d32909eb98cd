package omp

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/places"
	"github.com/interweaving/komp/internal/sim"
)

// pairPartition builds a 4-place partition over the 8 test CPUs
// ({0,1},{2,3},{4,5},{6,7}) — small enough to reason about placements
// exactly.
func pairPartition(t *testing.T) *places.Partition {
	t.Helper()
	p, err := places.Parse("{0:2},{2:2},{4:2},{6:2}", places.Flat(8))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// bindRecorder collects ThreadBind events keyed by thread number.
type bindRecorder struct {
	mu  sync.Mutex
	cpu map[int32][]int32 // thread -> CPUs bound, in order
	occ map[int32][]int64 // thread -> occupancy (Arg1) per bind
}

func newBindRecorder(sp *ompt.Spine) *bindRecorder {
	r := &bindRecorder{cpu: map[int32][]int32{}, occ: map[int32][]int64{}}
	sp.On(func(ev ompt.Event) {
		r.mu.Lock()
		r.cpu[ev.Thread] = append(r.cpu[ev.Thread], int32(ev.Obj))
		r.occ[ev.Thread] = append(r.occ[ev.Thread], ev.Arg1)
		r.mu.Unlock()
	}, ompt.ThreadBind)
	return r
}

// TestProcBindSpreadPlacesWorkers pins the spread placement end to end:
// with 4 two-CPU places and a team of 4, each worker lands on the first
// CPU of its own place, on both layers, and the ThreadBind stream says
// so.
func TestProcBindSpreadPlacesWorkers(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 4, Bind: true,
		ProcBind: places.BindSpread}, func(rt *Runtime, tc exec.TC) {
		rt.opts.Places = pairPartition(t)
		sp := rt.spine
		rec := newBindRecorder(sp)
		var got [4]int32
		rt.Parallel(tc, 4, func(w *Worker) {
			got[w.id] = int32(w.tc.CPU())
		})
		want := [4]int32{0, 2, 4, 6}
		if got != want {
			t.Errorf("spread team CPUs = %v, want %v", got, want)
		}
		for th := int32(0); th < 4; th++ {
			cpus := rec.cpu[th]
			if len(cpus) == 0 || cpus[len(cpus)-1] != want[th] {
				t.Errorf("thread %d ThreadBind CPUs = %v, want last %d", th, cpus, want[th])
			}
		}
	})
}

// TestOversubscriptionSurfaced is the satellite-1 regression: more
// threads than CPUs used to stack workers silently via the modulo wrap.
// Now every stacked worker's ThreadBind event carries Arg1 > 0.
func TestOversubscriptionSurfaced(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 12, Bind: true}, func(rt *Runtime, tc exec.TC) {
		rec := newBindRecorder(rt.spine)
		rt.Parallel(tc, 12, func(w *Worker) {})
		stacked := 0
		seen := 0
		rec.mu.Lock()
		for _, occs := range rec.occ {
			for _, o := range occs {
				seen++
				if o > 0 {
					stacked++
				}
			}
		}
		rec.mu.Unlock()
		if seen < 12 {
			t.Fatalf("only %d ThreadBind events for a 12-thread team", seen)
		}
		// 12 threads over 8 CPUs: at least 4 workers must share a CPU
		// with a lower-numbered teammate.
		if stacked < 4 {
			t.Errorf("oversubscription not surfaced: %d events with Arg1 > 0, want >= 4", stacked)
		}
	})
}

// TestLegacyCloseMatchesModuloPlacement pins backward compatibility:
// Bind:true with no explicit policy still puts worker i on CPU i while
// the team fits the machine.
func TestLegacyCloseMatchesModuloPlacement(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		var got [8]int32
		rt.Parallel(tc, 8, func(w *Worker) {
			got[w.id] = int32(w.tc.CPU())
		})
		want := [8]int32{0, 1, 2, 3, 4, 5, 6, 7}
		if got != want {
			t.Errorf("legacy close CPUs = %v, want %v", got, want)
		}
	})
}

// TestBindFalseMigrates: proc_bind(false) teams re-place workers between
// regions (the deterministic drift model), so two consecutive regions
// see different CPU assignments, and on the simulator the assignment is
// reproducible run to run.
func TestBindFalseMigrates(t *testing.T) {
	sample := func() [2][4]int32 {
		layer := exec.NewSimLayer(sim.New(8, 7), simCosts())
		rt := New(layer, Options{MaxThreads: 4, ProcBind: places.BindFalse})
		var got [2][4]int32
		layer.Run(func(tc exec.TC) {
			for r := 0; r < 2; r++ {
				region := r
				rt.Parallel(tc, 4, func(w *Worker) {
					got[region][w.id] = int32(w.tc.CPU())
				})
			}
			rt.Close(tc)
		})
		return got
	}
	a := sample()
	if a[0] == a[1] {
		t.Errorf("proc_bind(false) did not migrate between regions: %v", a)
	}
	for r := range a {
		// Slot 0 is the master (never migrated); pool workers must stay
		// on real CPUs so simulated contention still applies.
		for id := 1; id < 4; id++ {
			if a[r][id] < 0 || a[r][id] >= 8 {
				t.Fatalf("region %d worker %d on CPU %d, want [0,8)", r, id, a[r][id])
			}
		}
	}
	if b := sample(); a != b {
		t.Errorf("migration not deterministic: %v vs %v", a, b)
	}
}

// TestAffinityScheduleStableMapping: with a spread binding whose thread
// ids do not enumerate CPUs in order (master placed mid-partition), the
// affinity schedule deals block k to the worker with CPU rank k, and the
// mapping is identical across repeated loops.
func TestAffinityScheduleStableMapping(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 4, Bind: true,
		ProcBind: places.BindSpread}, func(rt *Runtime, tc exec.TC) {
		rt.opts.Places = pairPartition(t)
		const iters = 64
		var pass1, pass2 [iters]int32
		rt.Parallel(tc, 4, func(w *Worker) {
			cpu := int32(w.tc.CPU())
			w.ForEach(0, iters, ForOpt{Sched: Affinity}, func(i int) {
				atomic.StoreInt32(&pass1[i], cpu)
			})
			w.ForEach(0, iters, ForOpt{Sched: Affinity}, func(i int) {
				atomic.StoreInt32(&pass2[i], cpu)
			})
		})
		if pass1 != pass2 {
			t.Fatal("affinity chunk→cpu mapping changed between passes")
		}
		// Blocks ascend with CPU order: iteration i in block k runs on
		// the k-th smallest team CPU (0,2,4,6 under this spread).
		wantCPU := []int32{0, 2, 4, 6}
		for i := 0; i < iters; i++ {
			if want := wantCPU[i/(iters/4)]; pass1[i] != want {
				t.Fatalf("iter %d ran on CPU %d, want %d (full map %v)", i, pass1[i], want, pass1)
			}
		}
	})
}

// TestStealCountersSplitByLocality: a placed team's steals are split
// into same-socket and remote counters that sum to the total.
func TestStealCountersSplitByLocality(t *testing.T) {
	forBothLayers(t, Options{MaxThreads: 8, Bind: true}, func(rt *Runtime, tc exec.TC) {
		rt.Parallel(tc, 8, func(w *Worker) {
			if w.id == 0 {
				for i := 0; i < 64; i++ {
					w.Task(func(tw *Worker) { tw.TC().Charge(200) })
				}
			}
		})
		steals := rt.TaskSteals.Load()
		if steals == 0 {
			// Scheduling-dependent on the real layer: the producer may
			// drain its own flood. Nothing to assert, nothing broken.
			t.Log("flood drained without steals")
			return
		}
		if got := rt.LocalSteals.Load() + rt.RemoteSteals.Load(); got != steals {
			t.Errorf("locality split %d+%d != total steals %d",
				rt.LocalSteals.Load(), rt.RemoteSteals.Load(), steals)
		}
	})
}

// TestStealNearestPrefersNearRing: with places {0,1}{2,3}{4,5}{6,7} and
// a close-bound team of 8, worker 1 shares place 0 with worker 0. When
// only worker 0 has tasks, worker 1's nearest-first sweep steals from it
// via the same-place ring; the sweep order itself is pinned by unit
// tests in package places, here we assert the wiring (the runtime built
// rings and local steals dominate a same-place flood).
func TestStealNearestPrefersNearRing(t *testing.T) {
	layer := exec.NewSimLayer(sim.New(8, 7), simCosts())
	rt := New(layer, Options{MaxThreads: 8, Bind: true})
	rt.opts.Places = pairPartition(t)
	layer.Run(func(tc exec.TC) {
		rt.Parallel(tc, 8, func(w *Worker) {
			if w.id == 0 {
				for i := 0; i < 32; i++ {
					w.Task(func(tw *Worker) { tw.TC().Charge(100) })
				}
			}
		})
		rt.Close(tc)
	})
	if rt.TaskSteals.Load() == 0 {
		t.Fatal("no steals in a single-producer flood")
	}
	// Thieves were built with nearest-first rings: the team is placed
	// and the default sweep is near, so every steal was classified.
	if rt.LocalSteals.Load()+rt.RemoteSteals.Load() != rt.TaskSteals.Load() {
		t.Error("near sweep did not classify every steal")
	}
}

// TestAffinityEnvParsing covers the new ICVs end to end through
// Options.Env.
func TestAffinityEnvParsing(t *testing.T) {
	lookupIn := func(env map[string]string) func(string) (string, bool) {
		return func(k string) (string, bool) { v, ok := env[k]; return v, ok }
	}
	var o Options
	err := o.Env(lookupIn(map[string]string{
		"OMP_PLACES":    "sockets",
		"OMP_PROC_BIND": "spread",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if o.PlacesSpec != "sockets" || o.ProcBind != places.BindSpread || !o.Bind || o.StealOrder != StealNear {
		t.Errorf("parsed %+v", o)
	}
	for _, bad := range []map[string]string{
		{"OMP_PLACES": "nodes"},
		{"OMP_PLACES": "{0:"},
		{"OMP_PROC_BIND": "sideways"},
	} {
		var o Options
		if err := o.Env(lookupIn(bad)); err == nil {
			t.Errorf("Env(%v): want error", bad)
		}
	}
	// proc_bind(false) must not flip the legacy Bind flag on.
	var off Options
	if err := off.Env(lookupIn(map[string]string{"OMP_PROC_BIND": "false"})); err != nil {
		t.Fatal(err)
	}
	if off.Bind || off.ProcBind != places.BindFalse {
		t.Errorf("proc_bind=false parsed as %+v", off)
	}
}

// TestScheduleParsingAffinity extends the OMP_SCHEDULE grammar.
func TestScheduleParsingAffinity(t *testing.T) {
	kind, chunk, err := ParseSchedule("affinity,8")
	if err != nil || kind != Affinity || chunk != 8 {
		t.Errorf("ParseSchedule(affinity,8) = %v,%d,%v", kind, chunk, err)
	}
	if Affinity.String() != "affinity" {
		t.Errorf("Affinity.String() = %q", Affinity.String())
	}
}

// TestAffinityResilientDegrade: an affinity loop in a resilient region
// degrades to exactly-once chunk claiming like static does.
func TestAffinityResilientDegrade(t *testing.T) {
	layer := exec.NewSimLayer(sim.New(8, 7), simCosts())
	rt := New(layer, Options{MaxThreads: 4, Bind: true, Resilient: true})
	var ran [128]int32
	layer.Run(func(tc exec.TC) {
		rt.Parallel(tc, 4, func(w *Worker) {
			w.ForEach(0, len(ran), ForOpt{Sched: Affinity}, func(i int) {
				atomic.AddInt32(&ran[i], 1)
			})
		})
		rt.Close(tc)
	})
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("iteration %d ran %d times", i, n)
		}
	}
}
