package sim

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// firingOrderPinned is the FNV-1a hash TestFiringOrderPinned produced at
// commit 24d5611, when every proc was a goroutine resumed over a channel
// pair by a scheduler goroutine. A proc-switching mechanism that fires
// one event in a different order, or schedules one event more or fewer,
// changes it.
const firingOrderPinned uint64 = 0xa981bf083f8c8737

// TestFiringOrderPinned hashes (virtual time, events scheduled so far,
// proc id or callback tag) at every callback and every proc step of one
// mixed scenario and compares the hash with the constant recorded before
// procs became coroutines. The differential fuzz proves wheel == heap on
// one core; this proves the core itself did not move.
func TestFiringOrderPinned(t *testing.T) {
	for _, algo := range []EQAlgo{EQWheel, EQHeap} {
		h := fnv.New64a()
		s := NewEQ(4, 20210917, algo)
		s.SetNoise(jitterNoise{})
		rec := func(at Time, tag int) {
			var b [24]byte
			for i, v := range [3]uint64{uint64(at), s.seq, uint64(tag)} {
				binary.LittleEndian.PutUint64(b[8*i:], v)
			}
			h.Write(b[:])
		}
		step := func(p *Proc) { rec(p.Now(), p.ID) }
		cb := func(tag int) { rec(s.Now(), -tag) }

		// Compute chains, three procs to each of two shared CPUs, each
		// spawning a child half way.
		for i := 0; i < 6; i++ {
			i := i
			s.Go("chain", i%2, Time(10*i), func(p *Proc) {
				for j := 0; j < 40; j++ {
					p.Compute(Time(50 + 13*i + j))
					step(p)
					if j == 20 {
						s.Go("child", 2, p.Now(), func(c *Proc) {
							for k := 0; k < 10; k++ {
								c.Sleep(Time(30 + i))
								c.Yield()
								step(c)
							}
						})
					}
				}
			})
		}

		// Futex wake-all with stagger, three generations, rechecks armed
		// (and cancelled on every wake).
		ft := NewFutexTable(s)
		ft.SetRecheck(50_000, 4)
		var word uint32
		for i := 0; i < 5; i++ {
			s.Go("waiter", 3, 0, func(p *Proc) {
				for gen := uint32(0); gen < 3; gen++ {
					for word == gen {
						ft.Wait(p, &word, gen, 20)
					}
					step(p)
				}
			})
		}
		s.Go("waker", 2, 0, func(p *Proc) {
			for gen := uint32(1); gen <= 3; gen++ {
				p.Compute(1500)
				word = gen
				ft.Wake(p, &word, -1, 30, 200, 15)
				step(p)
			}
		})

		// Park/unpark, the unpark from a callback.
		parked := s.Go("parked", 1, 0, func(p *Proc) {
			for j := 0; j < 3; j++ {
				p.Park()
				step(p)
			}
		})
		for j := 1; j <= 3; j++ {
			s.At(Time(900*j), func() { cb(1); s.Unpark(parked, s.Now()+5) })
		}

		// Far-future spills, some armed from a proc.
		for j := 0; j < 4; j++ {
			j := j
			s.At(wheelSpan+Time(1000*j), func() { cb(10 + j) })
		}
		s.Go("far", -1, 0, func(p *Proc) {
			p.Sleep(3 * wheelSpan)
			step(p)
			s.After(2*wheelSpan, func() { cb(20) })
		})

		// AfterCancel: cancelled before firing, left to fire, cancelled
		// after firing.
		s.AfterCancel(700, func() { cb(30) })()
		late := s.AfterCancel(800, func() { cb(31) })
		s.At(2000, func() { cb(32); late() })

		// A kill mid-compute and a kill of a parked proc.
		spinner := s.Go("spinner", 0, 0, func(p *Proc) {
			for {
				p.Compute(70)
				step(p)
			}
		})
		stuck := s.Go("stuck", 1, 0, func(p *Proc) { p.Park(); step(p) })
		s.At(1234, func() { cb(40); s.Kill(spinner); s.Kill(stuck) })

		// Stop mid-flight, then resume.
		s.RunUntil(2500)
		cb(50)
		if err := s.Run(); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		cb(51)
		if spinner.State() != StateDone || stuck.State() != StateDone {
			t.Fatalf("%s: killed procs not done: %v %v", algo, spinner.State(), stuck.State())
		}
		if got := h.Sum64(); got != firingOrderPinned {
			t.Errorf("%s: firing-order hash %#x, want %#x (events fired %d, final t=%d)",
				algo, got, firingOrderPinned, s.EventsFired(), s.Now())
		}
	}
}
