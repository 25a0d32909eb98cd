package device

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/sim"
)

// layers mirrors the exec test harness: every semantic test runs on both
// execution layers, so the device runtime's results are provably
// independent of whether time is real or modeled.
func layers(t *testing.T) map[string]func() exec.Layer {
	t.Helper()
	return map[string]func() exec.Layer{
		"real": func() exec.Layer { return exec.NewRealLayer(8) },
		"sim": func() exec.Layer {
			return exec.NewSimLayer(sim.New(8, 1), exec.Costs{
				ThreadSpawnNS:      1000,
				FutexWaitEntryNS:   100,
				FutexWakeEntryNS:   100,
				FutexWakeLatencyNS: 50,
			})
		},
	}
}

func newDev(cus, lanes int) *Dev {
	return New(machine.DefaultDevice(cus, lanes), 0, nil)
}

// run executes body as the layer's main proc and fails the test on a
// layer error.
func run(t *testing.T, l exec.Layer, body func(tc exec.TC)) int64 {
	t.Helper()
	elapsed, err := l.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	return elapsed
}

// wantPanic runs f inside the layer and demands a panic whose message
// contains substr (the fail-loudly contracts of the map table).
func wantPanic(t *testing.T, l exec.Layer, substr string, f func(tc exec.TC)) {
	t.Helper()
	var msg string
	run(t, l, func(tc exec.TC) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f(tc)
	})
	if msg == "" {
		t.Fatalf("no panic, want one containing %q", substr)
	}
	if !strings.Contains(msg, substr) {
		t.Fatalf("panic %q, want substring %q", msg, substr)
	}
}

// TestMapKindMatrix pins the data-movement semantics of each map-type:
// which direction moves data, and when (creation vs release).
func TestMapKindMatrix(t *testing.T) {
	for name, mk := range layers(t) {
		t.Run(name, func(t *testing.T) {
			cases := []struct {
				kind          MapKind
				wantDevCopyIn bool // device copy holds host data after Enter
				wantCopyBack  bool // host sees device writes after Exit
				wantH2D       int64
				wantD2H       int64
			}{
				{To, true, false, 32, 0},
				{From, false, true, 0, 32},
				{Tofrom, true, true, 32, 32},
				{Alloc, false, false, 0, 0},
			}
			for _, c := range cases {
				t.Run(c.kind.String(), func(t *testing.T) {
					d := newDev(2, 4)
					a := []float64{1, 2, 3, 4}
					run(t, mk(), func(tc exec.TC) {
						d.Enter(tc, Map{Obj: a, Kind: c.kind})
						da := d.Ptr(a).([]float64)
						gotIn := da[2] == 3
						if gotIn != c.wantDevCopyIn {
							t.Errorf("%v: device copy initialized = %v, want %v", c.kind, gotIn, c.wantDevCopyIn)
						}
						for i := range da {
							da[i] = 100 + float64(i)
						}
						d.Exit(tc, Map{Obj: a, Kind: c.kind})
					})
					gotBack := a[2] == 102
					if gotBack != c.wantCopyBack {
						t.Errorf("%v: host sees device writes = %v, want %v (a = %v)", c.kind, gotBack, c.wantCopyBack, a)
					}
					st := d.Stats()
					if st.BytesH2D != c.wantH2D || st.BytesD2H != c.wantD2H {
						t.Errorf("%v: traffic h2d=%d d2h=%d, want %d/%d", c.kind, st.BytesH2D, st.BytesD2H, c.wantH2D, c.wantD2H)
					}
					if st.AllocatedBytes != 0 {
						t.Errorf("%v: %d bytes still allocated after exit", c.kind, st.AllocatedBytes)
					}
				})
			}
		})
	}
}

// TestScalarPointerMapping maps a pointer-to-struct and checks the same
// translation and copy-back contract slices get.
func TestScalarPointerMapping(t *testing.T) {
	type params struct{ N, Iters int }
	for name, mk := range layers(t) {
		t.Run(name, func(t *testing.T) {
			d := newDev(2, 4)
			p := &params{N: 7}
			run(t, mk(), func(tc exec.TC) {
				d.Data(tc, []Map{MapTofrom(p)}, func() {
					dp := d.Ptr(p).(*params)
					if dp.N != 7 {
						t.Errorf("device copy N = %d, want 7", dp.N)
					}
					dp.Iters = 42
				})
			})
			if p.Iters != 42 {
				t.Errorf("host Iters = %d after tofrom exit, want 42", p.Iters)
			}
		})
	}
}

// TestNestedDataRefcount is the present-table contract behind transfer
// hoisting: a mapping already present only gains a reference, so inner
// enters and target-style enter/exit pairs move no data, and the operand
// crosses the link exactly once each way however many regions nest.
func TestNestedDataRefcount(t *testing.T) {
	for name, mk := range layers(t) {
		t.Run(name, func(t *testing.T) {
			d := newDev(2, 4)
			a := make([]float64, 1024)
			for i := range a {
				a[i] = float64(i)
			}
			run(t, mk(), func(tc exec.TC) {
				d.Data(tc, []Map{MapTofrom(a)}, func() {
					afterOuter := d.Stats().BytesH2D
					for i := 0; i < 5; i++ {
						// The per-target enter/exit pair of a region nested in
						// the data environment: refcount 2 then back to 1.
						d.Enter(tc, MapTofrom(a))
						d.Exit(tc, MapTofrom(a))
					}
					if got := d.Stats().BytesH2D; got != afterOuter {
						t.Errorf("nested enters moved %d extra bytes, want 0", got-afterOuter)
					}
					if got := d.Stats().BytesD2H; got != 0 {
						t.Errorf("nested exits moved %d bytes back early, want 0", got)
					}
					if !d.Mapped(a) {
						t.Error("operand unmapped inside its data region")
					}
				})
			})
			st := d.Stats()
			want := int64(len(a) * 8)
			if st.BytesH2D != want || st.BytesD2H != want {
				t.Errorf("traffic h2d=%d d2h=%d, want exactly %d each way", st.BytesH2D, st.BytesD2H, want)
			}
			if d.Mapped(a) {
				t.Error("operand still mapped after the data region closed")
			}
		})
	}
}

// TestEnterExitUnstructuredLifetime covers `target enter/exit data`: the
// mapping outlives any one construct and dies with its last reference.
func TestEnterExitUnstructuredLifetime(t *testing.T) {
	for name, mk := range layers(t) {
		t.Run(name, func(t *testing.T) {
			d := newDev(2, 4)
			a := make([]int32, 256)
			run(t, mk(), func(tc exec.TC) {
				d.Enter(tc, MapTo(a))
				d.Enter(tc, MapTo(a)) // second reference
				d.Exit(tc, Map{Obj: a, Kind: Alloc})
				if !d.Mapped(a) {
					t.Error("mapping dropped while a reference remained")
				}
				if got := d.Stats().AllocatedBytes; got != int64(len(a)*4) {
					t.Errorf("allocated = %d, want %d", got, len(a)*4)
				}
				d.Exit(tc, Map{Obj: a, Kind: Alloc})
				if d.Mapped(a) {
					t.Error("mapping survived its last exit")
				}
			})
			if got := d.Stats().AllocatedBytes; got != 0 {
				t.Errorf("allocated = %d after final exit, want 0", got)
			}
		})
	}
}

// TestCreatingKindDrivesCopyOut: a mapping created `from` copies out on
// release even when the releasing map-type is a bare alloc — the
// creating kind is remembered, as unstructured lifetimes require.
func TestCreatingKindDrivesCopyOut(t *testing.T) {
	for name, mk := range layers(t) {
		t.Run(name, func(t *testing.T) {
			d := newDev(2, 4)
			a := make([]float64, 8)
			run(t, mk(), func(tc exec.TC) {
				d.Enter(tc, Map{Obj: a, Kind: From})
				d.Ptr(a).([]float64)[3] = 9
				d.Exit(tc, Map{Obj: a, Kind: Alloc})
			})
			if a[3] != 9 {
				t.Errorf("a[3] = %v, want 9 (creating kind `from` must drive the final copy-out)", a[3])
			}
		})
	}
}

// TestDanglingDevicePointerFailsLoudly is the regression for the
// dangling-device-pointer bug class: translating an unmapped object, or
// launching a kernel whose Uses list names one, must panic with a
// diagnostic instead of silently computing on stale memory.
func TestDanglingDevicePointerFailsLoudly(t *testing.T) {
	for name, mk := range layers(t) {
		t.Run(name, func(t *testing.T) {
			a := []float64{1, 2, 3}
			t.Run("never-mapped", func(t *testing.T) {
				d := newDev(2, 4)
				wantPanic(t, mk(), "dangling device pointer", func(tc exec.TC) {
					d.Init(tc)
					d.Ptr(a)
				})
			})
			t.Run("after-exit", func(t *testing.T) {
				d := newDev(2, 4)
				wantPanic(t, mk(), "dangling device pointer", func(tc exec.TC) {
					d.Enter(tc, MapTo(a))
					d.Exit(tc, MapTo(a))
					d.Ptr(a) // the mapping is gone: stale translation
				})
			})
			t.Run("launch-uses-unmapped", func(t *testing.T) {
				d := newDev(2, 4)
				wantPanic(t, mk(), "dangling device pointer", func(tc exec.TC) {
					_, _ = d.Launch(tc, Kernel{Name: "k", N: 16, IterNS: 10, Uses: []any{a}})
				})
			})
		})
	}
}

// TestMapTableFailures covers the other fail-loudly contracts: exiting
// an unmapped object, mapping an unmappable value, and exceeding the
// device memory budget.
func TestMapTableFailures(t *testing.T) {
	for name, mk := range layers(t) {
		t.Run(name, func(t *testing.T) {
			t.Run("exit-unmapped", func(t *testing.T) {
				d := newDev(2, 4)
				wantPanic(t, mk(), "not mapped", func(tc exec.TC) {
					d.Exit(tc, MapTo([]float64{1}))
				})
			})
			t.Run("unmappable-value", func(t *testing.T) {
				d := newDev(2, 4)
				wantPanic(t, mk(), "only slices and pointers", func(tc exec.TC) {
					d.Enter(tc, MapTo(42))
				})
			})
			t.Run("out-of-device-memory", func(t *testing.T) {
				topo := machine.DefaultDevice(2, 4)
				topo.MemBytes = 1024
				d := New(topo, 0, nil)
				wantPanic(t, mk(), "out of device memory", func(tc exec.TC) {
					d.Enter(tc, MapAlloc(make([]float64, 64)))  // 512 bytes: fits
					d.Enter(tc, MapAlloc(make([]float64, 128))) // 1024 more: over budget
				})
			})
		})
	}
}

// leagueSum launches a league-reduction kernel over integer-valued data
// (exact under any combine order) and returns the result.
func leagueSum(t *testing.T, tc exec.TC, d *Dev, k Kernel, a []float64) Result {
	t.Helper()
	k.Uses = []any{a}
	k.Body = func(b Block) float64 {
		da := d.Ptr(a).([]float64)
		var s float64
		for i := b.Lo; i < b.Hi; i++ {
			s += da[i]
		}
		return s
	}
	k.Reduce = func(x, y float64) float64 { return x + y }
	d.Enter(tc, MapTo(a))
	res, err := d.Launch(tc, k)
	d.Exit(tc, MapTo(a))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return res
}

func sumInput(n int) (a []float64, want float64) {
	a = make([]float64, n)
	for i := range a {
		a[i] = float64(i%7 + 1)
		want += a[i]
	}
	return a, want
}

// TestLeagueReductionBothLayers: the two-phase league reduction computes
// the exact serial value on both execution layers, whatever the
// team/chunk geometry deals out.
func TestLeagueReductionBothLayers(t *testing.T) {
	for name, mk := range layers(t) {
		t.Run(name, func(t *testing.T) {
			for _, geom := range []struct{ teams, chunk int }{{0, 0}, {3, 0}, {7, 11}, {1, 1000}} {
				d := newDev(4, 8)
				a, want := sumInput(10_000)
				var res Result
				run(t, mk(), func(tc exec.TC) {
					res = leagueSum(t, tc, d, Kernel{Name: "sum", Teams: geom.teams, Chunk: geom.chunk,
						N: len(a), IterNS: 5, BytesPerIter: 8}, a)
				})
				if res.Reduced != want {
					t.Errorf("teams=%d chunk=%d: reduced %v, want %v", geom.teams, geom.chunk, res.Reduced, want)
				}
				if res.Blocks == 0 || res.ElapsedNS < 0 {
					t.Errorf("teams=%d chunk=%d: degenerate result %+v", geom.teams, geom.chunk, res)
				}
			}
		})
	}
}

// TestLeagueDeterminism: two fresh simulators running the identical
// offload scenario produce byte-identical elapsed times and counters —
// the determinism contract every figure rests on.
func TestLeagueDeterminism(t *testing.T) {
	once := func() (int64, Result, Stats) {
		l := exec.NewSimLayer(sim.New(8, 1), exec.Costs{ThreadSpawnNS: 1000})
		d := newDev(4, 8)
		a, _ := sumInput(4096)
		var res Result
		elapsed := run(t, l, func(tc exec.TC) {
			for i := 0; i < 3; i++ { // back-to-back kernels queue on persistent CU state
				res = leagueSum(t, tc, d, Kernel{Name: "sum", N: len(a), IterNS: 7, BytesPerIter: 8}, a)
			}
		})
		return elapsed, res, d.Stats()
	}
	e1, r1, s1 := once()
	e2, r2, s2 := once()
	if e1 != e2 || r1 != r2 || s1 != s2 {
		t.Errorf("two identical runs diverged:\n  run1: elapsed=%d res=%+v stats=%+v\n  run2: elapsed=%d res=%+v stats=%+v",
			e1, r1, s1, e2, r2, s2)
	}
}

// TestCUOfflineRedealsMidKernel injects a CU death mid-kernel on the DES
// clock: the league must re-deal the dead CU's queued blocks to the
// survivors and still produce the exact reduction — no block lost, no
// block run twice, no hang.
func TestCUOfflineRedealsMidKernel(t *testing.T) {
	l := exec.NewSimLayer(sim.New(8, 1), exec.Costs{ThreadSpawnNS: 1000})
	d := newDev(4, 8)
	a, want := sumInput(1 << 14)
	var res Result
	run(t, l, func(tc exec.TC) {
		h := tc.Spawn("cu-fault", 1, func(tc exec.TC) {
			tc.Sleep(200_000) // lands between block boundaries, mid-kernel
			d.OfflineCU(0)
		})
		res = leagueSum(t, tc, d, Kernel{Name: "sum", N: len(a), Chunk: 64, IterNS: 800, BytesPerIter: 8}, a)
		h.Join(tc)
	})
	if res.Reduced != want {
		t.Errorf("reduced %v after CU loss, want %v", res.Reduced, want)
	}
	if res.Redealt == 0 {
		t.Error("no blocks re-dealt; the fault missed the kernel (tune the offline time)")
	}
	if d.OnlineCUs() != 3 {
		t.Errorf("OnlineCUs = %d, want 3", d.OnlineCUs())
	}
	if st := d.Stats(); st.Redeals != int64(res.Redealt) {
		t.Errorf("Stats.Redeals = %d, want %d", st.Redeals, res.Redealt)
	}
}

// TestAllCUsOfflineIsDeviceLost: with no compute unit left the launch
// returns ErrDeviceLost instead of hanging — the degrade contract fault
// plans compose with.
func TestAllCUsOfflineIsDeviceLost(t *testing.T) {
	for name, mk := range layers(t) {
		t.Run(name, func(t *testing.T) {
			t.Run("before-launch", func(t *testing.T) {
				d := newDev(2, 4)
				d.OfflineCU(0)
				d.OfflineCU(1)
				run(t, mk(), func(tc exec.TC) {
					_, err := d.Launch(tc, Kernel{Name: "k", N: 64, IterNS: 10})
					if !errors.Is(err, ErrDeviceLost) {
						t.Errorf("Launch = %v, want ErrDeviceLost", err)
					}
				})
			})
		})
	}
	t.Run("mid-kernel", func(t *testing.T) {
		l := exec.NewSimLayer(sim.New(8, 1), exec.Costs{ThreadSpawnNS: 1000})
		d := newDev(2, 4)
		var err error
		run(t, l, func(tc exec.TC) {
			h := tc.Spawn("cu-fault", 1, func(tc exec.TC) {
				tc.Sleep(200_000)
				d.OfflineCU(0)
				d.OfflineCU(1)
			})
			_, err = d.Launch(tc, Kernel{Name: "k", N: 1 << 14, Chunk: 64, IterNS: 200})
			h.Join(tc)
		})
		if !errors.Is(err, ErrDeviceLost) {
			t.Errorf("Launch = %v, want ErrDeviceLost", err)
		}
	})
}

// TestOfflineCUIgnoresBadIds: marking an out-of-range or already-dead CU
// is a no-op, matching the fault engine's fire-and-forget handlers.
func TestOfflineCUIgnoresBadIds(t *testing.T) {
	d := newDev(2, 4)
	d.OfflineCU(-1)
	d.OfflineCU(99)
	d.OfflineCU(1)
	d.OfflineCU(1)
	if got := d.OnlineCUs(); got != 1 {
		t.Errorf("OnlineCUs = %d, want 1", got)
	}
}

// TestStageBytesCountsTraffic: the model-only staging path shares the
// DMA counters with mapped transfers and ignores non-positive sizes.
func TestStageBytesCountsTraffic(t *testing.T) {
	for name, mk := range layers(t) {
		t.Run(name, func(t *testing.T) {
			d := newDev(2, 4)
			run(t, mk(), func(tc exec.TC) {
				d.StageBytes(tc, 4096, true)
				d.StageBytes(tc, 1024, false)
				d.StageBytes(tc, 0, true)
				d.StageBytes(tc, -5, false)
			})
			st := d.Stats()
			if st.BytesH2D != 4096 || st.BytesD2H != 1024 {
				t.Errorf("traffic h2d=%d d2h=%d, want 4096/1024", st.BytesH2D, st.BytesD2H)
			}
		})
	}
}
