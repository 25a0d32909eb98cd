package sim

import (
	"errors"
	"strings"
	"testing"
)

func TestDeadlockDiagnostics(t *testing.T) {
	s := New(2, 1)
	q := NewWaitQueue(s).SetLabel("testq")
	s.Go("parker", 0, 0, func(p *Proc) {
		p.Compute(100)
		p.Park()
	})
	s.Go("queued", 1, 0, func(p *Proc) {
		p.Compute(250)
		q.Wait(p)
	})
	err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("error type %T, want *StallError", err)
	}
	if se.Kind != "deadlock" || len(se.Stalled) != 2 {
		t.Fatalf("kind=%q stalled=%d, want deadlock/2", se.Kind, len(se.Stalled))
	}
	msg := err.Error()
	for _, want := range []string{
		"parker", "blocked on park since t=100ns",
		"queued", "blocked on waitqueue testq since t=250ns",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, msg)
		}
	}
	// Stalls are sorted by proc ID for deterministic output.
	if se.Stalled[0].ID > se.Stalled[1].ID {
		t.Errorf("stalls not sorted by ID: %v", se.Stalled)
	}
	if se.Stalled[0].Since != 100 || se.Stalled[0].Waited != se.Now-100 {
		t.Errorf("stall[0] since=%d waited=%d now=%d", se.Stalled[0].Since, se.Stalled[0].Waited, se.Now)
	}
}

func TestWatchdogFlagsStalledProc(t *testing.T) {
	s := New(2, 1)
	s.SetWatchdog(1000)
	s.Go("stuck", 0, 0, func(p *Proc) {
		p.Compute(10)
		p.Park()
	})
	// A live proc keeps the event queue busy well past the deadline.
	s.Go("spinner", 1, 0, func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Compute(100)
		}
	})
	err := s.Run()
	if err == nil {
		t.Fatal("expected watchdog error")
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("error type %T, want *StallError", err)
	}
	if se.Kind != "watchdog" {
		t.Fatalf("kind = %q, want watchdog", se.Kind)
	}
	if len(se.Stalled) != 1 || se.Stalled[0].Name != "stuck" {
		t.Fatalf("stalled = %+v, want just 'stuck'", se.Stalled)
	}
	if se.Stalled[0].Reason != "park" {
		t.Fatalf("reason = %q, want 'park'", se.Stalled[0].Reason)
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("message lacks 'watchdog': %s", err)
	}
}

func TestWatchdogIgnoresSleepers(t *testing.T) {
	s := New(1, 1)
	s.SetWatchdog(100)
	// A long sleep is progress (it has a pending event), not a stall.
	s.Go("sleeper", 0, 0, func(p *Proc) { p.Sleep(10_000) })
	s.Go("ticker", 0, 0, func(p *Proc) {
		for i := 0; i < 200; i++ {
			p.Compute(60)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("watchdog flagged a sleeper: %v", err)
	}
}

func TestKillBlockedProc(t *testing.T) {
	s := New(2, 1)
	q := NewWaitQueue(s)
	ran := false
	victim := s.Go("victim", 0, 0, func(p *Proc) {
		q.Wait(p)
		ran = true // must never run: proc dies while blocked
	})
	s.Go("killer", 1, 0, func(p *Proc) {
		p.Compute(500)
		s.Kill(victim)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("killed proc resumed past its block point")
	}
	if victim.State() != StateDone {
		t.Fatalf("victim state = %v, want done", victim.State())
	}
	if q.Len() != 0 {
		t.Fatal("killed proc left on wait queue")
	}
}

func TestKillRunnableProc(t *testing.T) {
	s := New(1, 1)
	steps := 0
	var victim *Proc
	victim = s.Go("victim", 0, 10, func(p *Proc) {
		for {
			steps++
			p.Compute(100)
		}
	})
	s.At(5, func() { s.Kill(victim) }) // before first dispatch
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 0 {
		t.Fatalf("victim ran %d steps after pre-start kill", steps)
	}
}

func TestKillMidCompute(t *testing.T) {
	s := New(1, 1)
	steps := 0
	victim := s.Go("victim", 0, 0, func(p *Proc) {
		for {
			p.Compute(100)
			steps++
		}
	})
	s.At(450, func() { s.Kill(victim) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if victim.State() != StateDone {
		t.Fatalf("victim state = %v, want done", victim.State())
	}
	if steps == 0 || steps > 5 {
		t.Fatalf("victim ran %d steps, want a few then death", steps)
	}
	if s.Procs() == nil && len(s.Procs()) != 0 {
		t.Fatal("dead proc still listed")
	}
}

func TestKillIsIdempotent(t *testing.T) {
	s := New(1, 1)
	victim := s.Go("victim", 0, 0, func(p *Proc) { p.Park() })
	s.At(10, func() {
		s.Kill(victim)
		s.Kill(victim) // second kill must be a no-op
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Kill(victim) // kill after death must be a no-op too
}

func TestProcsAccessor(t *testing.T) {
	s := New(2, 1)
	s.Go("a", 0, 0, func(p *Proc) { p.Compute(100) })
	s.Go("b", 1, 0, func(p *Proc) { p.Compute(100) })
	procs := s.Procs()
	if len(procs) != 2 || procs[0].Name != "a" || procs[1].Name != "b" {
		t.Fatalf("Procs() = %v", procs)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Procs()); n != 0 {
		t.Fatalf("%d procs listed after completion", n)
	}
}

func TestLostWakeRecoveredByRecheck(t *testing.T) {
	s := New(2, 1)
	ft := NewFutexTable(s)
	ft.SetRecheck(1000, 0)
	lose := true
	ft.LoseWake = func() bool {
		l := lose
		lose = false
		return l
	}
	word := uint32(0)
	var wokeAt Time = -1
	s.Go("waiter", 0, 0, func(p *Proc) {
		if !ft.Wait(p, &word, 0, 10) {
			t.Error("expected to block")
		}
		wokeAt = p.Now()
	})
	s.Go("waker", 1, 100, func(p *Proc) {
		word = 1
		ft.Wake(p, &word, 1, 10, 10, 0) // this wake is lost
	})
	if err := s.Run(); err != nil {
		t.Fatalf("lost wake not recovered: %v", err)
	}
	if ft.WakesLost != 1 {
		t.Fatalf("WakesLost = %d, want 1", ft.WakesLost)
	}
	if ft.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", ft.Recovered)
	}
	if wokeAt < 1000 {
		t.Fatalf("waiter woke at %d, expected recheck-driven wake >= 1000", wokeAt)
	}
}

func TestRecheckBudgetBoundsRecovery(t *testing.T) {
	s := New(1, 1)
	ft := NewFutexTable(s)
	ft.SetRecheck(100, 3)
	word := uint32(0)
	s.Go("waiter", 0, 0, func(p *Proc) {
		ft.Wait(p, &word, 0, 0) // nobody will ever wake or flip the word
	})
	err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock once recheck budget is exhausted")
	}
	if ft.Rechecks != 3 {
		t.Fatalf("rechecks = %d, want 3 (budget)", ft.Rechecks)
	}
}

func TestFaultFreeRunsUnperturbedByRecheck(t *testing.T) {
	// With rechecks armed but no fault, timings must match the plain run:
	// recheck callbacks observe-and-disarm without touching timelines.
	run := func(arm bool) Time {
		s := New(2, 7)
		ft := NewFutexTable(s)
		if arm {
			ft.SetRecheck(500, 0)
		}
		word := uint32(0)
		s.Go("waiter", 0, 0, func(p *Proc) { ft.Wait(p, &word, 0, 100) })
		s.Go("waker", 1, 300, func(p *Proc) {
			word = 1
			ft.Wake(p, &word, 1, 100, 50, 0)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("recheck arming perturbed a fault-free run: %d vs %d", a, b)
	}
}
