// target.go is the host side of device offload: the `target`,
// `target data` and `target enter/exit data` constructs over the
// internal/device subsystem, plus `target nowait` integrated into the
// tasking subsystem as an ordinary task with dependences.
package omp

import (
	"errors"
	"strconv"
	"strings"

	"github.com/interweaving/komp/internal/device"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
)

// setDeviceGeometry is the KOMP_DEVICE setter: "cus,lanes", both
// positive integers (e.g. "16,64" — 16 compute units of 64 lanes).
func setDeviceGeometry(o *Options, s string) error {
	a, b, ok := strings.Cut(strings.TrimSpace(s), ",")
	cus, errA := strconv.Atoi(strings.TrimSpace(a))
	lanes, errB := strconv.Atoi(strings.TrimSpace(b))
	if !ok || errA != nil || errB != nil || cus < 1 || lanes < 1 {
		return errors.New("want cus,lanes (two positive integers)")
	}
	o.DeviceCUs, o.DeviceLanes = cus, lanes
	return nil
}

// Device returns the runtime's accelerator, initializing it lazily from
// the options on first use: an environment-provided instance when one
// was injected (Options.Device — the simulated environments share one
// device per machine model), otherwise a fresh device at the configured
// geometry (KOMP_DEVICE, default 8 CUs × 32 lanes).
func (rt *Runtime) Device() *device.Dev {
	if d := rt.dev.Load(); d != nil {
		return d
	}
	rt.devMu.Lock()
	defer rt.devMu.Unlock()
	if d := rt.dev.Load(); d != nil {
		return d
	}
	d := rt.opts.Device
	if d == nil {
		cus, lanes := rt.opts.DeviceCUs, rt.opts.DeviceLanes
		if cus <= 0 {
			cus = 8
		}
		if lanes <= 0 {
			lanes = 32
		}
		d = device.New(machine.DefaultDevice(cus, lanes), 0, rt.spine)
	}
	rt.dev.Store(d)
	return d
}

// hostFallback reports whether target regions run on the host (the
// OpenMP initial-device fallback: OMP_DEFAULT_DEVICE=-1, or any device
// number past the one device this runtime models).
func (rt *Runtime) hostFallback() bool { return rt.opts.DefaultDevice < 0 }

// Target executes a kernel on the default device (#pragma omp target
// teams distribute): enter the map clauses, launch the league, exit the
// maps in reverse — a mapping an enclosing TargetData already holds is
// only reference-counted, so no data moves for it. With host fallback
// in force the kernel body runs on the encountering thread instead and
// the maps degenerate to the identity (no separate device memory).
func (rt *Runtime) Target(tc exec.TC, maps []device.Map, k device.Kernel) (device.Result, error) {
	if rt.hostFallback() {
		return rt.targetHost(tc, k), nil
	}
	d := rt.Device()
	d.Enter(tc, maps...)
	res, err := d.Launch(tc, k)
	for i := len(maps) - 1; i >= 0; i-- {
		d.Exit(tc, maps[i])
	}
	return res, err
}

// TargetData brackets body with a structured device mapping (#pragma
// omp target data): target regions inside find the mappings present and
// move no data — the transfer-hoisting pattern the offload ablation
// measures. Host fallback makes it a plain call.
func (rt *Runtime) TargetData(tc exec.TC, maps []device.Map, body func()) {
	if rt.hostFallback() {
		body()
		return
	}
	rt.Device().Data(tc, maps, body)
}

// TargetEnterData / TargetExitData are the unstructured mapping
// lifetime (#pragma omp target enter/exit data): mappings created here
// persist until the matching exit releases the last reference.
func (rt *Runtime) TargetEnterData(tc exec.TC, maps ...device.Map) {
	if rt.hostFallback() {
		return
	}
	rt.Device().Enter(tc, maps...)
}

func (rt *Runtime) TargetExitData(tc exec.TC, maps ...device.Map) {
	if rt.hostFallback() {
		return
	}
	rt.Device().Exit(tc, maps...)
}

// targetHost is the initial-device fallback: the distribute loop runs
// as one host team on the encountering thread, charging the modeled
// per-iteration cost serially. Results are identical to a device run —
// only the clock differs.
func (rt *Runtime) targetHost(tc exec.TC, k device.Kernel) device.Result {
	res := device.Result{Reduced: k.Init}
	chunk := k.Chunk
	if chunk <= 0 {
		chunk = k.N
		if chunk < 1 {
			chunk = 1
		}
	}
	t0 := tc.Now()
	for lo := 0; lo < k.N; lo += chunk {
		hi := lo + chunk
		if hi > k.N {
			hi = k.N
		}
		if k.Body != nil {
			p := k.Body(device.Block{Lo: lo, Hi: hi})
			if k.Reduce != nil {
				res.Reduced = k.Reduce(res.Reduced, p)
			}
		}
		tc.Charge(int64(hi-lo) * k.IterNS)
		res.Blocks++
	}
	res.ElapsedNS = tc.Now() - t0
	return res
}

// TargetNowait offloads a kernel asynchronously (#pragma omp target
// nowait depend(...)): the target region becomes an explicit task in
// the Chase–Lev tasking subsystem, ordered by its depend clauses like
// any sibling task and drained by barriers and taskwait. done, when
// non-nil, runs on the executing thread after the kernel completes —
// the place to read the reduction value or the kernel error.
func (w *Worker) TargetNowait(opt TaskOpt, maps []device.Map, k device.Kernel,
	done func(device.Result, error)) {
	rt := w.team.rt
	w.TaskWith(opt, func(tw *Worker) {
		res, err := rt.Target(tw.tc, maps, k)
		if done != nil {
			done(res, err)
		}
	})
}
