package sim

import (
	"fmt"
	"testing"
)

// The microbenchmark grid: concurrent timer streams standing in for
// machine sizes from a workstation to the 1024-core scale target.
var benchProcs = []int{24, 192, 1024}

func benchAlgos() []EQAlgo { return []EQAlgo{EQWheel, EQHeap} }

// preload fills the queue with n far-future events (one per simulated
// proc) so every benchmarked operation runs against a realistically
// loaded queue — this is where the heap pays its O(log n) sift and the
// wheel does not.
func preload(s *Sim, n int) {
	for i := 0; i < n; i++ {
		s.At(1<<40+Time(i), func() {})
	}
}

// BenchmarkSchedule measures one schedule+fire round trip (push, pop,
// recycle) with n pending events in the queue.
func BenchmarkSchedule(b *testing.B) {
	for _, algo := range benchAlgos() {
		for _, n := range benchProcs {
			b.Run(fmt.Sprintf("%s/procs=%d", algo, n), func(b *testing.B) {
				s := NewEQ(1, 1, algo)
				preload(s, n)
				fn := func() {}
				s.After(1, fn)
				s.RunUntil(s.Now() + 2) // warm the free list
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.After(1, fn)
					s.RunUntil(s.Now() + 2)
				}
			})
		}
	}
}

// BenchmarkStorm is the host speed of both queues on the differential
// test's event storm (buildStormWorkload): events fired per host second
// over a 50 virtual µs horizon, simulator construction included.
func BenchmarkStorm(b *testing.B) {
	for _, algo := range benchAlgos() {
		for _, n := range benchProcs[1:] {
			b.Run(fmt.Sprintf("%s/cores=%d", algo, n), func(b *testing.B) {
				var fired int64
				for i := 0; i < b.N; i++ {
					s := NewEQ(1, 42, algo)
					buildStormWorkload(s, n, 50_000, nil)
					s.RunUntil(50_000)
					fired += s.EventsFired()
				}
				b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// BenchmarkRunUntil measures steady-state event throughput: n
// self-rearming timer streams with staggered periods, advanced in
// fixed windows. Events per op scales with n, so compare via the
// events/sec figure (ns/op divided by events per window).
func BenchmarkRunUntil(b *testing.B) {
	for _, algo := range benchAlgos() {
		for _, n := range benchProcs {
			b.Run(fmt.Sprintf("%s/procs=%d", algo, n), func(b *testing.B) {
				s := NewEQ(1, 1, algo)
				ticks := make([]func(), n)
				for i := range ticks {
					period := Time(83 + i%211)
					i := i
					ticks[i] = func() { s.After(period, ticks[i]) }
					s.After(Time(i%977), ticks[i])
				}
				s.RunUntil(100_000) // warm
				base := s.EventsFired()
				next := s.Now()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					next += 10_000
					s.RunUntil(next)
				}
				b.StopTimer()
				if b.N > 0 {
					b.ReportMetric(float64(s.EventsFired()-base)/float64(b.N), "events/op")
				}
			})
		}
	}
}

// BenchmarkAlarmCancel measures the arm+cancel path (the futex-recheck
// pattern: almost every alarm is cancelled before firing) with n pending
// events. Lazy deletion leaves the cancelled node queued, so the
// benchmark periodically advances the clock past the corpses to include
// their pop-and-discard cost.
func BenchmarkAlarmCancel(b *testing.B) {
	for _, algo := range benchAlgos() {
		for _, n := range benchProcs {
			b.Run(fmt.Sprintf("%s/procs=%d", algo, n), func(b *testing.B) {
				s := NewEQ(1, 1, algo)
				preload(s, n)
				fn := func() {}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cancel := s.AfterCancel(100, fn)
					cancel()
					if i%1024 == 1023 {
						s.RunUntil(s.Now() + 200) // recycle the corpses
					}
				}
			})
		}
	}
}

// BenchmarkProcHandoff measures one proc event end to end — pop, switch
// into the proc, Compute, schedule, switch back — with n procs in lock
// step, so that for n > 1 every event resumes a different proc than the
// one that just blocked. One op is one event.
func BenchmarkProcHandoff(b *testing.B) {
	for _, n := range []int{1, 2, 64} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s := lockstep(n, b.N/n+1)
			b.ReportAllocs()
			b.ResetTimer()
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSpawnRun measures what a figure cell pays around its events:
// build a Sim, spawn n procs that each compute once, run to completion.
func BenchmarkSpawnRun(b *testing.B) {
	for _, n := range []int{64, 192} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			spawnRun(n) // warm the coroutine free list
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spawnRun(n)
			}
		})
	}
}
