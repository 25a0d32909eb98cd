package omp

import (
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/sim"
)

// TestHotTeamChurnSteadyState is the regression test for the hot-team
// cache under call-site churn: a program alternating between two team
// sizes must reach a steady state where forks build no new teams. The
// pre-cache runtime kept a single hot slot, so the alternation rebuilt
// a team (workers, deques, barrier tree) on every single fork.
func TestHotTeamChurnSteadyState(t *testing.T) {
	layer := exec.NewSimLayer(sim.New(8, 7), simCosts())
	rt := New(layer, Options{MaxThreads: 8, Bind: true})
	body := func(w *Worker) { w.TC().Charge(100) }
	var warm, after int64
	if _, err := layer.Run(func(tc exec.TC) {
		for r := 0; r < 3; r++ { // warm the cache with both sizes
			rt.Parallel(tc, 4, body)
			rt.Parallel(tc, 2, body)
		}
		warm = rt.TeamBuilds()
		for r := 0; r < 50; r++ { // call-site churn: alternate team sizes
			rt.Parallel(tc, 4, body)
			rt.Parallel(tc, 2, body)
		}
		after = rt.TeamBuilds()
		if got := rt.CachedTeams(); got != 2 {
			t.Errorf("CachedTeams() = %d after churn over 2 sizes, want 2", got)
		}
		rt.Close(tc)
	}); err != nil {
		t.Fatal(err)
	}
	if after != warm {
		t.Fatalf("steady-state churn built %d new teams, want 0 (hot cache thrashing between sizes)", after-warm)
	}
}

// TestHotTeamsMaxEviction: the cache must stay within its bound (here 2,
// set on the top-level cache in place of hotTeamsMax) under churn across
// more sizes than the bound holds, evicted teams must return their
// worker leases (nothing leaks), and the LRU choice must evict the
// coldest size.
func TestHotTeamsMaxEviction(t *testing.T) {
	layer := exec.NewSimLayer(sim.New(16, 7), simCosts())
	rt := New(layer, Options{MaxThreads: 16, Bind: true})
	rt.hot = newHotCache(2)
	body := func(w *Worker) { w.TC().Charge(100) }
	if _, err := layer.Run(func(tc exec.TC) {
		for r := 0; r < 8; r++ {
			for _, n := range []int{2, 3, 4, 5} {
				rt.Parallel(tc, n, body)
				if got := rt.CachedTeams(); got > 2 {
					t.Fatalf("CachedTeams() = %d, want <= the bound (2)", got)
				}
			}
		}
		// Eviction must have released the evicted teams' leases: with
		// every cached team drained, the free list holds the full pool.
		rt.ReleaseCachedTeams()
		if idle := rt.pool.Load().idle(); idle != 15 {
			t.Errorf("pool has %d free workers after draining caches, want 15 (evicted teams leaked leases)", idle)
		}
		if dr := rt.pool.Load().doubleReleases.Load(); dr != 0 {
			t.Errorf("doubleReleases = %d, want 0", dr)
		}
		rt.Close(tc)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestHotTeamLRUKeepsHotSize: with a bound of 1, a run alternating a hot
// size with a parade of one-shot sizes must still reuse the hot size's
// team whenever it was the most recent — i.e. the bound is LRU, not
// clear-on-insert.
func TestHotTeamLRUIsByRecency(t *testing.T) {
	layer := exec.NewSimLayer(sim.New(8, 7), simCosts())
	rt := New(layer, Options{MaxThreads: 8, Bind: true})
	rt.hot = newHotCache(2)
	body := func(w *Worker) { w.TC().Charge(100) }
	if _, err := layer.Run(func(tc exec.TC) {
		rt.Parallel(tc, 4, body) // cached: {4}
		rt.Parallel(tc, 2, body) // cached: {4, 2}
		rt.Parallel(tc, 4, body) // reuse 4 → recency {2, 4}
		base := rt.TeamBuilds()
		rt.Parallel(tc, 3, body) // evicts LRU (2), keeps 4: {4, 3}
		rt.Parallel(tc, 4, body) // must reuse, not rebuild
		if got := rt.TeamBuilds(); got != base+1 {
			t.Errorf("TeamBuilds grew by %d, want 1 (only the size-3 team; size 4 must survive the eviction)", got-base)
		}
		rt.Close(tc)
	}); err != nil {
		t.Fatal(err)
	}
}
