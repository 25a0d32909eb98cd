package pthread

import (
	"sync/atomic"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/sim"
)

func testLayers() map[string]func() exec.Layer {
	return map[string]func() exec.Layer{
		"real": func() exec.Layer { return exec.NewRealLayer(8) },
		"sim": func() exec.Layer {
			return exec.NewSimLayer(sim.New(8, 1), exec.Costs{
				AtomicRMWNS: 20, FutexWaitEntryNS: 100, FutexWakeEntryNS: 100,
				FutexWakeLatencyNS: 200, FutexWakeStaggerNS: 20,
			})
		},
	}
}

func allImpls() []Impl { return []Impl{NPTL, PTE, Custom} }

func TestMutexMutualExclusion(t *testing.T) {
	for lname, mk := range testLayers() {
		for _, impl := range allImpls() {
			impl := impl
			t.Run(lname+"/"+impl.String(), func(t *testing.T) {
				layer := mk()
				lib := New(layer, impl)
				counter := 0
				_, err := layer.Run(func(tc exec.TC) {
					m := lib.NewMutex()
					var ths []*Thread
					for i := 0; i < 6; i++ {
						ths = append(ths, lib.Create(tc, Attr{CPU: i % 8}, func(tc exec.TC) {
							for k := 0; k < 50; k++ {
								m.Lock(tc)
								counter++
								m.Unlock(tc)
							}
						}))
					}
					for _, th := range ths {
						lib.Join(tc, th)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if counter != 300 {
					t.Fatalf("counter = %d, want 300", counter)
				}
			})
		}
	}
}

func TestTryLock(t *testing.T) {
	layer := exec.NewSimLayer(sim.New(2, 1), exec.Costs{})
	lib := New(layer, NPTL)
	_, err := layer.Run(func(tc exec.TC) {
		m := lib.NewMutex()
		if !m.TryLock(tc) {
			t.Error("first TryLock must succeed")
		}
		if m.TryLock(tc) {
			t.Error("second TryLock must fail")
		}
		m.Unlock(tc)
		if !m.TryLock(tc) {
			t.Error("TryLock after Unlock must succeed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	for lname, mk := range testLayers() {
		t.Run(lname, func(t *testing.T) {
			layer := mk()
			lib := New(layer, NPTL)
			ready := 0
			woken := 0
			_, err := layer.Run(func(tc exec.TC) {
				m := lib.NewMutex()
				cv := lib.NewCond()
				var ths []*Thread
				for i := 0; i < 4; i++ {
					ths = append(ths, lib.Create(tc, Attr{CPU: 1 + i%7}, func(tc exec.TC) {
						m.Lock(tc)
						ready++
						for ready < 100 {
							cv.Wait(tc, m)
						}
						woken++
						m.Unlock(tc)
					}))
				}
				// Wait for all to be waiting, then broadcast.
				for {
					m.Lock(tc)
					r := ready
					m.Unlock(tc)
					if r == 4 {
						break
					}
					tc.Yield()
					tc.Sleep(1000)
				}
				m.Lock(tc)
				ready = 100
				cv.Broadcast(tc)
				m.Unlock(tc)
				for _, th := range ths {
					lib.Join(tc, th)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if woken != 4 {
				t.Fatalf("woken = %d, want 4", woken)
			}
		})
	}
}

func TestBarrierAllVariants(t *testing.T) {
	for lname, mk := range testLayers() {
		for _, impl := range allImpls() {
			impl := impl
			t.Run(lname+"/"+impl.String(), func(t *testing.T) {
				layer := mk()
				lib := New(layer, impl)
				const n = 6
				const rounds = 10
				phase := make([]atomic.Int64, n)
				var serialCount atomic.Int64
				_, err := layer.Run(func(tc exec.TC) {
					b := lib.NewBarrier(n)
					var ths []*Thread
					for i := 0; i < n; i++ {
						i := i
						ths = append(ths, lib.Create(tc, Attr{CPU: i % 8}, func(tc exec.TC) {
							for r := 0; r < rounds; r++ {
								phase[i].Store(int64(r))
								if b.Wait(tc) {
									serialCount.Add(1)
									// Everyone must have reached r.
									for j := 0; j < n; j++ {
										if got := phase[j].Load(); got < int64(r) {
											t.Errorf("round %d: thread %d at %d", r, j, got)
										}
									}
								}
							}
						}))
					}
					for _, th := range ths {
						lib.Join(tc, th)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if serialCount.Load() != rounds {
					t.Fatalf("serial thread count = %d, want %d", serialCount.Load(), rounds)
				}
			})
		}
	}
}

func TestPTEBarrierSlowerThanCustom(t *testing.T) {
	// The paper's motivation for customizing: the generic PTE layering is
	// measurably slower on kernel primitives.
	run := func(impl Impl) int64 {
		layer := exec.NewSimLayer(sim.New(8, 1), exec.Costs{
			AtomicRMWNS: 20, CacheLineXferNS: 40,
			FutexWaitEntryNS: 80, FutexWakeEntryNS: 80,
			FutexWakeLatencyNS: 300, FutexWakeStaggerNS: 30,
		})
		lib := New(layer, impl)
		elapsed, err := layer.Run(func(tc exec.TC) {
			b := lib.NewBarrier(8)
			var ths []*Thread
			for i := 0; i < 8; i++ {
				ths = append(ths, lib.Create(tc, Attr{CPU: i}, func(tc exec.TC) {
					for r := 0; r < 200; r++ {
						b.Wait(tc)
					}
				}))
			}
			for _, th := range ths {
				lib.Join(tc, th)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	pte, custom := run(PTE), run(Custom)
	if pte <= custom {
		t.Fatalf("PTE barrier (%d) must be slower than customized (%d)", pte, custom)
	}
}
