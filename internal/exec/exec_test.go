package exec

import (
	"sync/atomic"
	"testing"

	"github.com/interweaving/komp/internal/sim"
)

func layers(t *testing.T) map[string]func() Layer {
	t.Helper()
	return map[string]func() Layer{
		"real": func() Layer { return NewRealLayer(8) },
		"sim": func() Layer {
			return NewSimLayer(sim.New(8, 1), Costs{
				ThreadSpawnNS:      1000,
				FutexWaitEntryNS:   100,
				FutexWakeEntryNS:   100,
				FutexWakeLatencyNS: 50,
			})
		},
	}
}

func TestSpawnJoinBothLayers(t *testing.T) {
	for name, mk := range layers(t) {
		t.Run(name, func(t *testing.T) {
			l := mk()
			var count atomic.Int64
			_, err := l.Run(func(tc TC) {
				var hs []Handle
				for i := 0; i < 8; i++ {
					hs = append(hs, tc.Spawn("w", i%l.NumCPUs(), func(tc TC) {
						count.Add(1)
					}))
				}
				for _, h := range hs {
					h.Join(tc)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if count.Load() != 8 {
				t.Fatalf("count = %d, want 8", count.Load())
			}
		})
	}
}

func TestFutexHandoffBothLayers(t *testing.T) {
	for name, mk := range layers(t) {
		t.Run(name, func(t *testing.T) {
			l := mk()
			var flag Word
			var observed uint32
			_, err := l.Run(func(tc TC) {
				h := tc.Spawn("waiter", 1, func(tc TC) {
					for flag.Load() == 0 {
						tc.FutexWait(&flag, 0)
					}
					observed = flag.Load()
				})
				tc.Charge(500)
				flag.Store(7)
				tc.FutexWake(&flag, -1)
				h.Join(tc)
			})
			if err != nil {
				t.Fatal(err)
			}
			if observed != 7 {
				t.Fatalf("observed = %d, want 7", observed)
			}
		})
	}
}

func TestFutexValueMismatchDoesNotBlock(t *testing.T) {
	for name, mk := range layers(t) {
		t.Run(name, func(t *testing.T) {
			l := mk()
			var w Word
			w.Store(3)
			_, err := l.Run(func(tc TC) {
				if tc.FutexWait(&w, 5) {
					t.Error("blocked despite mismatch")
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSimChargeAdvancesVirtualTime(t *testing.T) {
	l := NewSimLayer(sim.New(4, 1), Costs{})
	elapsed, err := l.Run(func(tc TC) {
		tc.Charge(12345)
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 12345 {
		t.Fatalf("elapsed = %d, want 12345", elapsed)
	}
}

func TestSimParallelSpawnOverlaps(t *testing.T) {
	l := NewSimLayer(sim.New(4, 1), Costs{})
	elapsed, err := l.Run(func(tc TC) {
		var hs []Handle
		for i := 1; i < 4; i++ {
			hs = append(hs, tc.Spawn("w", i, func(tc TC) { tc.Charge(1000) }))
		}
		tc.Charge(1000)
		for _, h := range hs {
			h.Join(tc)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed >= 2000 {
		t.Fatalf("elapsed = %d; threads did not run in parallel", elapsed)
	}
	if elapsed < 1000 {
		t.Fatalf("elapsed = %d < compute time", elapsed)
	}
}

func TestSimSpawnCostCharged(t *testing.T) {
	l := NewSimLayer(sim.New(2, 1), Costs{ThreadSpawnNS: 777})
	var spawnDone int64
	_, err := l.Run(func(tc TC) {
		h := tc.Spawn("w", 1, func(tc TC) {})
		spawnDone = tc.Now()
		h.Join(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if spawnDone != 777 {
		t.Fatalf("spawn returned at %d, want 777", spawnDone)
	}
}

func TestSimSpawnHook(t *testing.T) {
	l := NewSimLayer(sim.New(2, 1), Costs{})
	hooked := 0
	l.SpawnHook = func(tc TC, cpu int) { hooked++ }
	_, err := l.Run(func(tc TC) {
		tc.Spawn("a", 1, func(tc TC) {}).Join(tc)
		tc.Spawn("b", 1, func(tc TC) {}).Join(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if hooked != 2 {
		t.Fatalf("hook ran %d times, want 2", hooked)
	}
}

func TestSimDeterministicElapsed(t *testing.T) {
	run := func() int64 {
		l := NewSimLayer(sim.New(8, 99), Costs{
			ThreadSpawnNS: 100, FutexWaitEntryNS: 30, FutexWakeEntryNS: 30,
			FutexWakeLatencyNS: 20, FutexWakeStaggerNS: 5,
		})
		elapsed, err := l.Run(func(tc TC) {
			var gate Word
			var hs []Handle
			for i := 0; i < 8; i++ {
				hs = append(hs, tc.Spawn("w", i, func(tc TC) {
					for gate.Load() == 0 {
						tc.FutexWait(&gate, 0)
					}
					tc.Charge(int64(100 + l.Sim.RNG().Intn(50)))
				}))
			}
			tc.Charge(1000)
			gate.Store(1)
			tc.FutexWake(&gate, -1)
			for _, h := range hs {
				h.Join(tc)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}
