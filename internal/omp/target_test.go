package omp

import (
	"strings"
	"sync/atomic"
	"testing"

	"github.com/interweaving/komp/internal/device"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/sim"
)

func envOf(vars map[string]string) func(string) (string, bool) {
	return func(k string) (string, bool) {
		v, ok := vars[k]
		return v, ok
	}
}

// TestDeviceICVParsing covers the offload environment variables:
// OMP_DEFAULT_DEVICE, KOMP_DEVICE and KOMP_RESILIENT,
// good values and the error text of bad ones.
func TestDeviceICVParsing(t *testing.T) {
	good := map[string]string{
		"OMP_DEFAULT_DEVICE": "-1",
		"KOMP_DEVICE":        " 16 , 64 ",
		"KOMP_RESILIENT":     "true",
	}
	var o Options
	if err := o.Env(envOf(good)); err != nil {
		t.Fatalf("Env: %v", err)
	}
	if o.DefaultDevice != -1 || o.DeviceCUs != 16 || o.DeviceLanes != 64 || !o.Resilient {
		t.Errorf("parsed %+v, want DefaultDevice=-1 DeviceCUs=16 DeviceLanes=64 Resilient=true", o)
	}

	bad := []struct{ key, val, want string }{
		{"OMP_DEFAULT_DEVICE", "gpu", "OMP_DEFAULT_DEVICE"},
		{"KOMP_DEVICE", "16", "want cus,lanes"},
		{"KOMP_DEVICE", "0,64", "want cus,lanes"},
		{"KOMP_DEVICE", "16,-2", "want cus,lanes"},
		{"KOMP_RESILIENT", "maybe", "KOMP_RESILIENT"},
	}
	for _, c := range bad {
		var o Options
		err := o.Env(envOf(map[string]string{c.key: c.val}))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s=%q: err = %v, want one containing %q", c.key, c.val, err, c.want)
		}
	}
}

// TestDeviceLazyConstruction: the runtime builds its device from the
// configured geometry and the default device memory on first use, and
// prefers an injected instance (the shared per-machine device of the
// simulated environments).
func TestDeviceLazyConstruction(t *testing.T) {
	l := exec.NewSimLayer(sim.New(4, 1), simCosts())
	rt := New(l, Options{MaxThreads: 2, DeviceCUs: 6, DeviceLanes: 16})
	d := rt.Device()
	if *d.Topo() != *machine.DefaultDevice(6, 16) {
		t.Errorf("device topo %+v, want machine.DefaultDevice(6, 16)", d.Topo())
	}
	if rt.Device() != d {
		t.Error("Device() is not idempotent")
	}

	inj := device.New(machine.DefaultDevice(2, 4), 3, nil)
	rt2 := New(l, Options{MaxThreads: 2, Device: inj, DeviceCUs: 99})
	if rt2.Device() != inj {
		t.Error("injected Options.Device was not preferred over geometry")
	}
}

func targetSumKernel(d *device.Dev, a []float64, iterNS int64) device.Kernel {
	return device.Kernel{
		Name: "sum", N: len(a), IterNS: iterNS, BytesPerIter: 8,
		Uses: []any{a},
		Body: func(b device.Block) float64 {
			da := d.Ptr(a).([]float64)
			var s float64
			for i := b.Lo; i < b.Hi; i++ {
				s += da[i]
			}
			return s
		},
		Reduce: func(x, y float64) float64 { return x + y },
	}
}

func targetInput(n int) ([]float64, float64) {
	a := make([]float64, n)
	var want float64
	for i := range a {
		a[i] = float64(i%7 + 1)
		want += a[i]
	}
	return a, want
}

// TestTargetComputesExactReduction: `target` over map clauses produces
// the exact serial reduction on the simulated accelerator, and the
// enclosing `target data` hoists the transfers (the present-table
// refcount moves the operand once each way across many regions).
func TestTargetComputesExactReduction(t *testing.T) {
	l := exec.NewSimLayer(sim.New(4, 1), simCosts())
	rt := New(l, Options{MaxThreads: 2, DeviceCUs: 4, DeviceLanes: 8})
	a, want := targetInput(4096)
	maps := []device.Map{device.MapTofrom(a)}
	var sum float64
	_, err := l.Run(func(tc exec.TC) {
		rt.TargetData(tc, maps, func() {
			for i := 0; i < 4; i++ {
				res, terr := rt.Target(tc, maps, targetSumKernel(rt.Device(), a, 10))
				if terr != nil {
					t.Errorf("Target: %v", terr)
				}
				sum = res.Reduced
			}
		})
		rt.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != want {
		t.Errorf("reduced %v, want %v", sum, want)
	}
	st := rt.Device().Stats()
	bytes := int64(len(a) * 8)
	if st.BytesH2D != bytes || st.BytesD2H != bytes {
		t.Errorf("traffic h2d=%d d2h=%d, want exactly %d each way (hoisting)", st.BytesH2D, st.BytesD2H, bytes)
	}
	if st.Kernels != 4 {
		t.Errorf("kernels = %d, want 4", st.Kernels)
	}
}

// TestTargetHostFallback: OMP_DEFAULT_DEVICE=-1 runs target regions on
// the encountering thread — same result, no device, no traffic.
func TestTargetHostFallback(t *testing.T) {
	l := exec.NewSimLayer(sim.New(4, 1), simCosts())
	rt := New(l, Options{MaxThreads: 2, DefaultDevice: -1, DeviceCUs: 4, DeviceLanes: 8})
	a, want := targetInput(1024)
	maps := []device.Map{device.MapTofrom(a)}
	var sum float64
	ran := false
	_, err := l.Run(func(tc exec.TC) {
		rt.TargetEnterData(tc, maps...) // no-ops under fallback
		rt.TargetData(tc, maps, func() { ran = true })
		k := device.Kernel{
			Name: "sum", N: len(a), IterNS: 10,
			Body: func(b device.Block) float64 {
				var s float64
				for i := b.Lo; i < b.Hi; i++ {
					s += a[i] // host memory: no translation under fallback
				}
				return s
			},
			Reduce: func(x, y float64) float64 { return x + y },
		}
		res, terr := rt.Target(tc, maps, k)
		if terr != nil {
			t.Errorf("Target: %v", terr)
		}
		sum = res.Reduced
		rt.TargetExitData(tc, maps...)
		rt.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("TargetData body did not run under host fallback")
	}
	if sum != want {
		t.Errorf("reduced %v, want %v", sum, want)
	}
	if st := rt.Device().Stats(); st.BytesH2D != 0 || st.BytesD2H != 0 || st.Kernels != 0 {
		t.Errorf("host fallback touched the device: %+v", st)
	}
}

// TestTargetNowaitDependOrdering: `target nowait` is an ordinary task in
// the dependence graph — a depend(out) producer runs before the target
// task, whose completion a taskwait observes.
func TestTargetNowaitDependOrdering(t *testing.T) {
	for _, layer := range []struct {
		name string
		mk   func() exec.Layer
	}{
		{"sim", func() exec.Layer { return exec.NewSimLayer(sim.New(4, 1), simCosts()) }},
		{"real", func() exec.Layer { return exec.NewRealLayer(4) }},
	} {
		t.Run(layer.name, func(t *testing.T) {
			l := layer.mk()
			rt := New(l, Options{MaxThreads: 4, DeviceCUs: 4, DeviceLanes: 8})
			a, want := targetInput(2048)
			var produced, got atomic.Int64
			_, err := l.Run(func(tc exec.TC) {
				rt.Parallel(tc, 4, func(w *Worker) {
					w.Master(func() {
						w.TaskWith(TaskOpt{Depend: []Dep{Out(&a)}}, func(tw *Worker) {
							tw.TC().Charge(50_000)
							produced.Store(1)
						})
						w.TargetNowait(TaskOpt{Depend: []Dep{In(&a)}},
							[]device.Map{device.MapTofrom(a)}, targetSumKernel(rt.Device(), a, 10),
							func(res device.Result, err error) {
								if err != nil {
									t.Errorf("target nowait: %v", err)
								}
								if produced.Load() != 1 {
									t.Error("target task ran before its depend(in) producer")
								}
								got.Store(int64(res.Reduced))
							})
						w.Taskwait()
						if got.Load() != int64(want) {
							t.Errorf("taskwait returned before the target task completed (got %d, want %d)",
								got.Load(), int64(want))
						}
					})
					w.Barrier()
				})
				rt.Close(tc)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOffloadFaultComposition is the KOMP_RESILIENT offload regression:
// a CU taken offline mid-kernel degrades the league — the dead CU's
// blocks re-deal to the survivors, the reduction stays exact and the run
// terminates — and losing every CU surfaces ErrDeviceLost instead of a
// hang.
func TestOffloadFaultComposition(t *testing.T) {
	var o Options
	if err := o.Env(envOf(map[string]string{"KOMP_RESILIENT": "1", "KOMP_DEVICE": "4,8"})); err != nil {
		t.Fatal(err)
	}
	o.MaxThreads = 2
	s := sim.New(4, 1)
	l := exec.NewSimLayer(s, simCosts())
	rt := New(l, o)
	d := rt.Device()
	s.At(200*sim.Microsecond, func() { d.OfflineCU(1) })

	a, want := targetInput(1 << 14)
	k := targetSumKernel(d, a, 800)
	k.Chunk = 64
	var res device.Result
	_, err := l.Run(func(tc exec.TC) {
		var terr error
		res, terr = rt.Target(tc, []device.Map{device.MapTofrom(a)}, k)
		if terr != nil {
			t.Errorf("Target under cu-offline: %v", terr)
		}
		rt.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduced != want {
		t.Errorf("reduced %v under cu-offline, want %v", res.Reduced, want)
	}
	if res.Redealt == 0 {
		t.Error("no re-deal (offline time missed the kernel)")
	}
	if d.OnlineCUs() != 3 {
		t.Errorf("OnlineCUs = %d, want 3", d.OnlineCUs())
	}
}

// TestOffloadAllCUsLostDegrades: taking every CU offline makes the
// target region return ErrDeviceLost — composed faults degrade, never
// hang.
func TestOffloadAllCUsLostDegrades(t *testing.T) {
	s := sim.New(4, 1)
	l := exec.NewSimLayer(s, simCosts())
	rt := New(l, Options{MaxThreads: 2, Resilient: true, DeviceCUs: 2, DeviceLanes: 4})
	d := rt.Device()
	s.At(100*sim.Microsecond, func() { d.OfflineCU(0) })
	s.At(150*sim.Microsecond, func() { d.OfflineCU(1) })

	a, _ := targetInput(1 << 14)
	k := targetSumKernel(d, a, 800)
	k.Chunk = 64
	_, err := l.Run(func(tc exec.TC) {
		_, terr := rt.Target(tc, []device.Map{device.MapTofrom(a)}, k)
		if terr != device.ErrDeviceLost {
			t.Errorf("Target = %v, want ErrDeviceLost", terr)
		}
		rt.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
}
