package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestEQAlgoNames pins the names the differential tests report, and
// that the zero value and New both build the wheel.
func TestEQAlgoNames(t *testing.T) {
	var zero EQAlgo
	if zero != EQWheel || EQWheel.String() != "wheel" || EQHeap.String() != "heap" {
		t.Errorf("zero=%v wheel=%s heap=%s", zero, EQWheel, EQHeap)
	}
	if _, ok := New(1, 1).eq.(*wheelQueue); !ok {
		t.Errorf("New built %T, want the wheel", New(1, 1).eq)
	}
}

// TestQueueDifferentialFuzz drives the wheel and the heap baseline with
// the same randomized push/pop stream (timestamps spanning same-time
// storms, the wheel window, and far-beyond-horizon spills) and demands
// identical (at, seq) pop order — the determinism property that makes
// the trace byte-identity guarantee hold by construction.
func TestQueueDifferentialFuzz(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wheel := newWheelQueue()
		heap := &heapQueue{}
		var cur Time // queue invariant: pushes never precede the last pop
		var seq uint64
		for op := 0; op < 20_000; op++ {
			if rng.Intn(3) != 0 || heap.size() == 0 {
				var d Time
				switch rng.Intn(4) {
				case 0:
					d = Time(rng.Intn(4)) // same-timestamp storm
				case 1:
					d = Time(rng.Intn(int(wheelSpan))) // in-window
				case 2:
					d = wheelSpan + Time(rng.Intn(1_000_000)) // spill
				default:
					d = Time(rng.Intn(20_000_000)) // anywhere
				}
				seq++
				wheel.push(&eventNode{at: cur + d, seq: seq})
				heap.push(&eventNode{at: cur + d, seq: seq})
				continue
			}
			hw, hh := wheel.pop(), heap.pop()
			if hw.at != hh.at || hw.seq != hh.seq {
				t.Fatalf("seed %d op %d: wheel popped (%d,%d), heap (%d,%d)",
					seed, op, hw.at, hw.seq, hh.at, hh.seq)
			}
			cur = hw.at
			pw, okw := wheel.peekTime()
			ph, okh := heap.peekTime()
			if okw != okh || pw != ph {
				t.Fatalf("seed %d op %d: peek wheel (%d,%v) heap (%d,%v)",
					seed, op, pw, okw, ph, okh)
			}
			if wheel.size() != heap.size() {
				t.Fatalf("seed %d op %d: size wheel %d heap %d",
					seed, op, wheel.size(), heap.size())
			}
		}
		for {
			hw, hh := wheel.pop(), heap.pop()
			if hw == nil || hh == nil {
				if hw != hh {
					t.Fatalf("seed %d: drain length mismatch", seed)
				}
				break
			}
			if hw.at != hh.at || hw.seq != hh.seq {
				t.Fatalf("seed %d drain: wheel (%d,%d) heap (%d,%d)",
					seed, hw.at, hw.seq, hh.at, hh.seq)
			}
		}
	}
}

type fireRec struct {
	at  Time
	tag int
}

// buildFuzzWorkload schedules a randomized mix of callbacks (same-time
// storms, in-window, far-future spills, self-rescheduling chains),
// cancellable alarms (cancelled before firing, after firing, and twice),
// and procs exercising Compute/Sleep/Yield and Park/Unpark. Everything
// is derived from the given rng seed, so two sims given the same seed
// receive the identical workload.
func buildFuzzWorkload(s *Sim, seed int64, trace *[]fireRec) {
	rng := rand.New(rand.NewSource(seed))
	rec := func(tag int) { *trace = append(*trace, fireRec{s.Now(), tag}) }

	for i := 0; i < 300; i++ {
		tag := i
		var at Time
		switch rng.Intn(4) {
		case 0:
			at = Time(rng.Intn(64))
		case 1:
			at = Time(rng.Intn(int(wheelSpan)))
		case 2:
			at = wheelSpan + Time(rng.Intn(2_000_000))
		default:
			at = Time(rng.Intn(10_000_000))
		}
		if rng.Intn(3) == 0 {
			hops := rng.Intn(3) + 1
			step := Time(rng.Intn(200_000) + 1)
			var chain func()
			chain = func() {
				rec(tag)
				if hops > 0 {
					hops--
					s.After(step, chain)
				}
			}
			s.At(at, chain)
			continue
		}
		s.At(at, func() { rec(tag) })
	}

	// Alarms: half cancelled immediately, some cancelled from a later
	// callback (often after the alarm already fired — the stale-handle
	// path), some cancelled twice.
	for i := 0; i < 120; i++ {
		tag := 1000 + i
		d := Time(rng.Intn(3_000_000))
		cancel := s.AfterCancel(d, func() { rec(tag) })
		switch rng.Intn(4) {
		case 0:
			cancel()
		case 1:
			cancel()
			cancel()
		case 2:
			s.At(Time(rng.Intn(3_000_000)), cancel)
		}
	}

	// Procs: bound compute/sleep/yield workers plus park/unpark pairs.
	for i := 0; i < 6; i++ {
		tag := 2000 + i
		cpu := rng.Intn(s.NumCPU())
		start := Time(rng.Intn(5000))
		steps := rng.Intn(5) + 2
		kinds := make([]int, steps)
		durs := make([]Time, steps)
		for j := range kinds {
			kinds[j] = rng.Intn(3)
			durs[j] = Time(rng.Intn(80_000) + 1)
		}
		s.Go(fmt.Sprintf("w%d", i), cpu, start, func(p *Proc) {
			for j := 0; j < steps; j++ {
				switch kinds[j] {
				case 0:
					p.Compute(durs[j])
				case 1:
					p.Sleep(durs[j])
				default:
					p.Yield()
				}
				rec(tag)
			}
		})
	}
	for i := 0; i < 3; i++ {
		tag := 3000 + i
		cpu := rng.Intn(s.NumCPU())
		wake := Time(rng.Intn(8_000_000) + 1)
		sleeper := s.Go(fmt.Sprintf("p%d", i), cpu, 0, func(p *Proc) {
			p.Park()
			rec(tag)
			p.Compute(100)
		})
		s.At(wake, func() { s.Unpark(sleeper, s.Now()) })
	}
}

// buildStormWorkload is an event storm over n simulated cores, the event
// mix the simulated kernels generate at scale: a standing far-future
// timeout per core that never fires inside the horizon (the heap sifts
// past them on every operation; the wheel keeps them in the spill
// level), two tick streams per core at staggered periods whose every
// 64th tick arms and immediately cancels an alarm (the futex recheck
// pattern), and an n-wide same-timestamp release every 400 ns (a
// barrier release in miniature). Ticks and releases are traced unless
// trace is nil (BenchmarkStorm).
func buildStormWorkload(s *Sim, n int, horizon Time, trace *[]fireRec) {
	rec := func(tag int) {
		if trace != nil {
			*trace = append(*trace, fireRec{s.Now(), tag})
		}
	}
	noop := func() {}
	for i := 0; i < n; i++ {
		s.At(horizon+1_000_000+Time(i), noop)
	}
	ticks := make([]func(), 2*n)
	for i := range ticks {
		period := Time(96 + i%67)
		beat := 0
		ticks[i] = func() {
			rec(i)
			beat++
			if beat%64 == 0 {
				cancel := s.AfterCancel(500, noop)
				cancel()
			}
			s.After(period, ticks[i])
		}
		s.After(Time(1+i%97), ticks[i])
	}
	var release func()
	release = func() {
		rec(-1)
		at := s.Now() + 1
		for i := 0; i < n; i++ {
			s.At(at, noop)
		}
		s.After(400, release)
	}
	s.After(400, release)
}

// TestSimDifferentialFuzz runs each input on a wheel-backed and a
// heap-backed simulator and requires the event-firing traces — (virtual
// time, tag) for every traced callback and proc step — to be identical,
// along with the fired-event totals and final clocks. The inputs are the
// randomized fuzz workload at six seeds, run to quiescence, and the
// event storm at 192 and 1024 cores, run to a short horizon.
func TestSimDifferentialFuzz(t *testing.T) {
	type input struct {
		name  string
		ncpu  int
		build func(s *Sim, trace *[]fireRec)
		until Time // 0: Run to quiescence
	}
	var inputs []input
	for seed := int64(1); seed <= 6; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("fuzz seed %d", seed), 8,
			func(s *Sim, trace *[]fireRec) { buildFuzzWorkload(s, seed, trace) }, 0})
	}
	const horizon = 50_000
	for _, n := range []int{192, 1024} {
		inputs = append(inputs, input{fmt.Sprintf("storm %d cores", n), 1,
			func(s *Sim, trace *[]fireRec) { buildStormWorkload(s, n, horizon, trace) }, horizon})
	}
	for _, in := range inputs {
		var traces [2][]fireRec
		var fired [2]int64
		var final [2]Time
		for i, algo := range []EQAlgo{EQWheel, EQHeap} {
			s := NewEQ(in.ncpu, 42, algo)
			in.build(s, &traces[i])
			if in.until > 0 {
				s.RunUntil(in.until)
			} else if err := s.Run(); err != nil {
				t.Fatalf("%s %s: Run: %v", in.name, algo, err)
			}
			fired[i] = s.EventsFired()
			final[i] = s.Now()
		}
		if len(traces[0]) != len(traces[1]) {
			t.Fatalf("%s: trace lengths wheel=%d heap=%d",
				in.name, len(traces[0]), len(traces[1]))
		}
		for j := range traces[0] {
			if traces[0][j] != traces[1][j] {
				t.Fatalf("%s: trace[%d] wheel=%+v heap=%+v",
					in.name, j, traces[0][j], traces[1][j])
			}
		}
		if fired[0] != fired[1] || final[0] != final[1] {
			t.Fatalf("%s: fired wheel=%d heap=%d, final wheel=%d heap=%d",
				in.name, fired[0], fired[1], final[0], final[1])
		}
	}
}

// TestWheelSpillPath pins that far-future events actually take the spill
// level and still fire in order (the rollover/refill machinery is
// exercised, not bypassed).
func TestWheelSpillPath(t *testing.T) {
	s := NewEQ(1, 1, EQWheel)
	var got []Time
	for _, d := range []Time{wheelSpan * 3, 5, wheelSpan + 1, wheelSpan * 2, 50} {
		at := d
		s.At(at, func() { got = append(got, at) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{5, 50, wheelSpan + 1, wheelSpan * 2, wheelSpan * 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if s.EventsSpilled() != 3 {
		t.Fatalf("EventsSpilled = %d, want 3", s.EventsSpilled())
	}
}

// TestAfterCancelGeneration pins the lazy-deletion generation counter: a
// cancel handle invoked after its event fired — even after the node has
// been recycled into new events — must not disturb them, and cancelling
// twice is inert.
func TestAfterCancelGeneration(t *testing.T) {
	for _, algo := range []EQAlgo{EQWheel, EQHeap} {
		s := NewEQ(1, 1, algo)
		firedA, firedB, firedC := 0, 0, 0
		cancel := s.AfterCancel(10, func() { firedA++ })
		s.At(20, func() {
			// The alarm's node is back on the free list; these two
			// events recycle it (and this event's own node).
			s.After(10, func() { firedB++ })
			s.After(20, func() { firedC++ })
			cancel() // stale: must not cancel the recycled nodes
			cancel()
		})
		if err := s.Run(); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if firedA != 1 || firedB != 1 || firedC != 1 {
			t.Fatalf("%s: fired A=%d B=%d C=%d, want 1/1/1", algo, firedA, firedB, firedC)
		}
	}
}

// TestCancelledEventDoesNotAdvanceClock: a cancelled alarm discarded on
// pop must leave no trace on the virtual clock (fault-free timings are a
// tier-1 property).
func TestCancelledEventDoesNotAdvanceClock(t *testing.T) {
	for _, algo := range []EQAlgo{EQWheel, EQHeap} {
		s := NewEQ(1, 1, algo)
		cancel := s.AfterCancel(1_000_000, func() { t.Fatal("cancelled alarm fired") })
		cancel()
		fired := false
		s.At(10, func() { fired = true })
		if err := s.Run(); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !fired {
			t.Fatalf("%s: live event did not fire", algo)
		}
		if s.Now() != 10 {
			t.Fatalf("%s: clock at %d after run, want 10 (cancelled alarm advanced it)", algo, s.Now())
		}
		if s.EventsFired() != 1 {
			t.Fatalf("%s: EventsFired = %d, want 1", algo, s.EventsFired())
		}
	}
}

// TestCancelClearsProcHasEvent is the regression test for the stale
// hasEvent flag: cancelling the pending event of a blocked proc must
// clear the flag and fold the proc into the watchdog's no-event
// accounting, so diagnostics see a proc with no way forward rather than
// a phantom wakeup. (White-box: proc-carrying events are cancelled via
// the internal cancelFunc, the path an alarm-backed wait uses.)
func TestCancelClearsProcHasEvent(t *testing.T) {
	s := NewEQ(1, 1, EQHeap)
	woke := false
	p := s.Go("sleeper", 0, 0, func(p *Proc) {
		p.Sleep(1000)
		woke = true
	})
	s.At(100, func() {
		if !p.hasEvent || p.State() != StateBlocked {
			t.Fatalf("precondition: hasEvent=%v state=%v", p.hasEvent, p.State())
		}
		// Find the sleeper's wake event and cancel it out from under it.
		hq := s.eq.(*heapQueue)
		var n *eventNode
		for _, c := range hq.h {
			if c.proc == p {
				n = c
			}
		}
		if n == nil {
			t.Fatal("no pending proc event found")
		}
		s.cancelFunc(n)()
		if p.hasEvent {
			t.Fatal("hasEvent still set after its event was cancelled")
		}
		if s.noEvent != 1 {
			t.Fatalf("noEvent = %d after cancel, want 1", s.noEvent)
		}
		// Recover the proc so the run finishes cleanly.
		s.Unpark(p, s.Now())
		if s.noEvent != 0 {
			t.Fatalf("noEvent = %d after Unpark, want 0", s.noEvent)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Fatal("sleeper never resumed")
	}
}

// TestSteadyStateZeroAlloc asserts the event hot path — schedule, pop,
// fire, recycle — allocates nothing once the free list is warm, for both
// queue algorithms.
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, algo := range []EQAlgo{EQWheel, EQHeap} {
		s := NewEQ(4, 7, algo)
		var ticks [4]func()
		for i := range ticks {
			period := Time(89 + 13*i)
			i := i
			ticks[i] = func() { s.After(period, ticks[i]) }
			s.After(Time(i+1), ticks[i])
		}
		s.RunUntil(10_000) // warm the free list and queue capacity
		next := s.Now()
		avg := testing.AllocsPerRun(100, func() {
			next += 10_000
			s.RunUntil(next)
		})
		if avg != 0 {
			t.Errorf("%s: steady-state RunUntil allocates %.1f/run, want 0", algo, avg)
		}
	}
}
