package sim

import (
	"errors"
	"slices"
	"sync"
	"testing"
)

// TestKillInFutexWaitDisarmsRecheck kills a proc parked in FutexTable.Wait
// with timed rechecks armed. The kill unwinds the proc through Wait's
// deferred disarm, so nothing is left to fire: no recheck runs, the clock
// stops at the kill, and the queue drains empty.
func TestKillInFutexWaitDisarmsRecheck(t *testing.T) {
	s := New(1, 1)
	ft := NewFutexTable(s)
	ft.SetRecheck(1000, 0)
	var word uint32
	resumed := false
	victim := s.Go("victim", 0, 0, func(p *Proc) {
		ft.Wait(p, &word, 0, 10)
		resumed = true
	})
	s.At(500, func() { s.Kill(victim) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed || victim.State() != StateDone {
		t.Fatalf("resumed=%v state=%v, want a dead victim", resumed, victim.State())
	}
	if ft.Waiters(&word) != 0 {
		t.Fatal("killed proc left on its futex queue")
	}
	if ft.Rechecks != 0 || s.Now() != 500 || s.eq.size() != 0 {
		t.Fatalf("rechecks=%d now=%d queued=%d, want 0/500/0: the victim's recheck timer outlived it",
			ft.Rechecks, s.Now(), s.eq.size())
	}
}

func coroIsFree(c *coro) bool {
	coroFree.Lock()
	defer coroFree.Unlock()
	return slices.Contains(coroFree.list, c)
}

// TestProcPanicSurfacesFromRun pins where a proc's panic (and a proc's
// t.FailNow) ends up: on the goroutine that called Run, after the proc
// has been accounted as done, leaving a simulator that can be run on.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	boom := errors.New("boom")
	s := New(2, 1)
	unwound := false
	bad := s.Go("bad", 0, 0, func(p *Proc) {
		defer func() { unwound = true }()
		p.Compute(10)
		panic(boom)
	})
	goodEnd := Time(0)
	good := s.Go("good", 1, 0, func(p *Proc) {
		p.Compute(100)
		goodEnd = p.Now()
	})
	badCoro, goodCoro := bad.co, good.co
	recovered := func() (r any) {
		defer func() { r = recover() }()
		return s.Run()
	}()
	if recovered != boom {
		t.Fatalf("Run left with %v, want the proc's panic value", recovered)
	}
	if !unwound || bad.State() != StateDone {
		t.Fatalf("unwound=%v state=%v, want the proc unwound and done", unwound, bad.State())
	}
	if live := s.Procs(); len(live) != 1 || live[0] != good {
		t.Fatalf("live procs after the panic: %v, want only good", live)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if goodEnd != 100 {
		t.Fatalf("good ended at %d after the resumed Run, want 100", goodEnd)
	}
	if coroIsFree(badCoro) {
		t.Fatal("the coroutine that died with the panic is on the free list")
	}
	if !coroIsFree(goodCoro) {
		t.Fatal("the coroutine of a proc that returned is not on the free list")
	}

	t.Run("FailNow", func(t *testing.T) {
		// inner stands in for a failing test: FailNow marks it failed and
		// calls runtime.Goexit, which must end the goroutine inside Run
		// instead of leaving it waiting for a proc that is gone.
		var inner testing.T
		s := New(1, 1)
		p := s.Go("fatal", 0, 0, func(p *Proc) {
			p.Compute(10)
			inner.FailNow()
		})
		ended := make(chan struct{})
		returned := false
		go func() {
			defer close(ended)
			s.Run()
			returned = true
		}()
		<-ended
		if returned {
			t.Fatal("Run returned normally after FailNow in proc code")
		}
		if !inner.Failed() || p.State() != StateDone || len(s.Procs()) != 0 {
			t.Fatalf("failed=%v state=%v live=%d, want true/done/0", inner.Failed(), p.State(), len(s.Procs()))
		}
	})
}

// lockstep builds a Sim of n procs, one per CPU, that compute in lock
// step for the given number of rounds.
func lockstep(n, rounds int) *Sim {
	s := New(n, 1)
	for i := 0; i < n; i++ {
		s.Go("p", i, 0, func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Compute(10)
			}
		})
	}
	return s
}

// TestConcurrentSimsShareCoroutines runs Sims back to back on four
// goroutines at once, so coroutines recycled by one caller are picked up
// by another. Under -race this checks the free list's hand-over; the
// results must equal a single-threaded run.
func TestConcurrentSimsShareCoroutines(t *testing.T) {
	const procs, rounds, sims = 64, 20, 4
	ref := lockstep(procs, rounds)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sims; i++ {
				s := lockstep(procs, rounds)
				if err := s.Run(); err != nil {
					t.Error(err)
					return
				}
				if s.EventsFired() != ref.EventsFired() || s.Now() != ref.Now() {
					t.Errorf("fired %d at t=%d, want %d at t=%d",
						s.EventsFired(), s.Now(), ref.EventsFired(), ref.Now())
				}
			}
		}()
	}
	wg.Wait()
}

// killAll ends procs that would otherwise stay parked in a Sim the test
// is done with, returning their coroutines.
func killAll(t *testing.T, s *Sim) {
	t.Helper()
	for _, p := range s.Procs() {
		s.Kill(p)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestProcSwitchZeroAlloc asserts that switching between procs allocates
// nothing in the steady state, for compute hand-offs and for a futex
// wait/wake cycle.
func TestProcSwitchZeroAlloc(t *testing.T) {
	t.Run("handoff", func(t *testing.T) {
		s := New(2, 1)
		for i := 0; i < 2; i++ {
			s.Go("p", i, 0, func(p *Proc) {
				for {
					p.Compute(10)
				}
			})
		}
		s.RunUntil(1000) // warm the event-node free list
		next := s.Now()
		if avg := testing.AllocsPerRun(100, func() {
			next += 1000
			s.RunUntil(next)
		}); avg != 0 {
			t.Errorf("two-proc hand-off allocates %.1f per 200 events, want 0", avg)
		}
		killAll(t, s)
	})
	t.Run("futex", func(t *testing.T) {
		s := New(2, 1)
		ft := NewFutexTable(s)
		var ping, pong uint32
		s.Go("ping", 0, 0, func(p *Proc) {
			for i := uint32(1); ; i++ {
				ping = i
				ft.Wake(p, &ping, 1, 20, 50, 0)
				for pong != i {
					ft.Wait(p, &pong, i-1, 20)
				}
			}
		})
		s.Go("pong", 1, 0, func(p *Proc) {
			for i := uint32(1); ; i++ {
				for ping != i {
					ft.Wait(p, &ping, i-1, 20)
				}
				pong = i
				ft.Wake(p, &pong, 1, 20, 50, 0)
			}
		})
		s.RunUntil(10_000)
		next := s.Now()
		if avg := testing.AllocsPerRun(100, func() {
			next += 10_000
			s.RunUntil(next)
		}); avg != 0 {
			t.Errorf("futex wait/wake cycle allocates %.1f per window, want 0", avg)
		}
		killAll(t, s)
	})
}

// spawnRunAllocs bounds what building a 64-proc Sim, spawning procs
// that each compute once, and running it to completion may allocate once
// the coroutine and wheel free lists are warm: the Sim, its Proc and
// event-node slabs and the procs index, 15 objects on go1.24. A fresh
// coroutine costs seven more per proc, so a free list that stopped
// recycling fails this at once, as does a Proc allocated per Go.
const spawnRunAllocs = 32

func spawnRun(n int) {
	s := New(n, 1)
	for i := 0; i < n; i++ {
		s.Go("p", i, 0, func(p *Proc) { p.Compute(10) })
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
}

func TestSpawnRunAllocs(t *testing.T) {
	const n = 64
	spawnRun(n) // warm the coroutine free list
	if avg := testing.AllocsPerRun(20, func() { spawnRun(n) }); avg > spawnRunAllocs {
		t.Errorf("warmed 64-proc build+run allocates %.0f (%.2f per proc), want at most %d",
			avg, avg/n, spawnRunAllocs)
	} else {
		t.Logf("warmed 64-proc build+run: %.0f allocations, %.2f per proc", avg, avg/n)
	}
}
