package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"

	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/device"
	"github.com/interweaving/komp/internal/epcc"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/nas"
	"github.com/interweaving/komp/internal/virgil"
)

// des_regen: one op is one pass over a seed-shuffled list of small
// simulation cells, each built with core.New and run with Layer.Run the
// way the figure harness regenerates a table cell. The simulator seed is
// derived from the benchmark seed. A cell's virtual output is hashed and
// must be identical every time the cell recurs.
const (
	desOrders     = 5
	virgilTasks   = 512
	deviceIters   = 1 << 14
	deviceCUs     = 8
	deviceLanes   = 64
	deviceKernels = 4
)

// cellOut is the virtual outcome of one cell: exact, a pure function of
// the simulator seed.
type cellOut struct {
	digest                    uint64
	events, spilled, virtualN int64
}

type desCell struct {
	name string
	run  func(d *desInst, tr *tracer, op uint32, parent spanID) (cellOut, error)
}

type desInst struct {
	simSeed int64
	cells   []desCell
	orders  [][]int
	ref     []cellOut
	total   cellOut // per pass, over the cells in list order
	hash    uint64
}

// digester hashes virtual results bit for bit.
type digester struct{ h hash.Hash64 }

func (d digester) i64(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}
func (d digester) f64(v float64) { d.i64(int64(math.Float64bits(v))) }
func (d digester) str(s string)  { d.h.Write([]byte(s)) }

// elapsedOut is the outcome of a cell whose only virtual output is the
// time it took.
func elapsedOut(env *core.Env, elapsed int64) cellOut {
	h := fnv.New64a()
	digester{h}.i64(elapsed)
	s := env.Layer.Sim
	return cellOut{h.Sum64(), s.EventsFired(), s.EventsSpilled(), elapsed}
}

// spanArg packs what a DES span is about: environment kind, EPCC suite
// and machine.
func spanArg(kind core.Kind, suite int, big bool) int {
	a := int(kind) | suite<<3
	if big {
		a |= 1 << 7
	}
	return a
}

func suiteIndex(suite string) int {
	for i, s := range epcc.Suites() {
		if s == suite {
			return i
		}
	}
	return 0
}

// epccCell regenerates one EPCC suite under one environment, with one
// outer and one inner repetition: the figure cell at its quickest.
func epccCell(m func() *machine.Machine, big bool, n int, kind core.Kind, suite string) desCell {
	arg := spanArg(kind, suiteIndex(suite), big)
	return desCell{
		name: fmt.Sprintf("epcc/%s/%v/%d", suite, kind, n),
		run: func(d *desInst, tr *tracer, op uint32, parent spanID) (cellOut, error) {
			sp := tr.beginArg(0, spEnvBuild, op, 0, parent, arg)
			env := core.New(core.Config{Machine: m(), Kind: kind, Seed: d.simSeed, Threads: n})
			rt := env.OMPRuntime()
			tr.end(sp)
			cfg := epcc.Defaults(n)
			cfg.OuterReps, cfg.InnerReps = 1, 1
			var rs []epcc.Result
			var runErr error
			sp = tr.beginArg(0, spLayerRun, op, 0, parent, arg)
			elapsed, err := env.Layer.Run(func(tc exec.TC) {
				in := tr.beginArg(0, spEPCCRun, op, 0, sp, arg)
				rs, runErr = epcc.Run(tc, rt, suite, cfg)
				tr.end(in)
				in = tr.beginArg(0, spRTClose, op, 0, sp, arg)
				rt.Close(tc)
				tr.end(in)
			})
			tr.end(sp)
			if err == nil {
				err = runErr
			}
			h := fnv.New64a()
			dg := digester{h}
			dg.i64(elapsed)
			for _, r := range rs {
				dg.str(r.Name)
				dg.f64(r.OverheadUS)
				dg.f64(r.SDUS)
			}
			s := env.Layer.Sim
			return cellOut{h.Sum64(), s.EventsFired(), s.EventsSpilled(), elapsed}, err
		},
	}
}

func nasCell(spec string, kind core.Kind, n int) desCell {
	arg := spanArg(kind, 0, false)
	return desCell{
		name: fmt.Sprintf("nas/%s/%v/%d", spec, kind, n),
		run: func(d *desInst, tr *tracer, op uint32, parent spanID) (cellOut, error) {
			sp := tr.beginArg(0, spEnvBuild, op, 0, parent, arg)
			env := core.New(core.Config{Machine: machine.PHI(), Kind: kind, Seed: d.simSeed, Threads: n})
			tr.end(sp)
			sp = tr.beginArg(0, spNASModel, op, 0, parent, arg)
			res, err := nas.RunModel(env, nas.SpecByName(spec), n)
			tr.end(sp)
			h := fnv.New64a()
			digester{h}.f64(res.Seconds)
			s := env.Layer.Sim
			return cellOut{h.Sum64(), s.EventsFired(), s.EventsSpilled(), int64(res.Seconds * 1e9)}, err
		},
	}
}

// virgilCell submits a batch of tasks to the in-kernel VIRGIL runtime of
// a CCK environment.
func virgilCell() desCell {
	arg := spanArg(core.CCK, 0, false)
	return desCell{
		name: "virgil/cck/8",
		run: func(d *desInst, tr *tracer, op uint32, parent spanID) (cellOut, error) {
			sp := tr.beginArg(0, spEnvBuild, op, 0, parent, arg)
			env := core.New(core.Config{Machine: machine.PHI(), Kind: core.CCK, Seed: d.simSeed, Threads: 8})
			v := env.Virgil()
			tr.end(sp)
			ran := 0
			sp = tr.beginArg(0, spLayerRun, op, 0, parent, arg)
			elapsed, err := env.Layer.Run(func(tc exec.TC) {
				v.Start(tc)
				g := virgil.NewGroup(virgilTasks)
				fns := make([]func(exec.TC), virgilTasks)
				for i := range fns {
					fns[i] = func(wtc exec.TC) { wtc.Charge(100); g.Done(wtc) }
				}
				in := tr.begin(0, spVirgil, op, 0, sp)
				v.SubmitBatch(tc, fns)
				g.Wait(tc)
				tr.end(in)
				ran = virgilTasks
				v.Stop(tc)
			})
			tr.end(sp)
			if err == nil && ran != virgilTasks {
				err = fmt.Errorf("virgil cell: ran %d of %d tasks", ran, virgilTasks)
			}
			return elapsedOut(env, elapsed), err
		},
	}
}

// deviceCell launches target kernels on a simulated accelerator attached
// to the 8XEON, with a league reduction whose value is checked.
func deviceCell() desCell {
	arg := spanArg(core.RTK, 0, true)
	a := make([]float64, deviceIters)
	var want float64
	for i := range a {
		a[i] = float64(i%7 + 1)
		want += a[i]
	}
	return desCell{
		name: "device/rtk/8x64",
		run: func(d *desInst, tr *tracer, op uint32, parent spanID) (cellOut, error) {
			sp := tr.beginArg(0, spEnvBuild, op, 0, parent, arg)
			m := machine.WithDevice(machine.XEON8(), deviceCUs, deviceLanes)
			env := core.New(core.Config{Machine: m, Kind: core.RTK, Seed: d.simSeed, Threads: 1})
			rt := env.OMPRuntime()
			dev := env.Device()
			tr.end(sp)
			k := device.Kernel{
				Name: "sum", N: deviceIters, IterNS: 4800, BytesPerIter: 8, Uses: []any{a},
				Body: func(b device.Block) float64 {
					da := dev.Ptr(a).([]float64)
					var s float64
					for i := b.Lo; i < b.Hi; i++ {
						s += da[i]
					}
					return s
				},
				Reduce: func(x, y float64) float64 { return x + y },
			}
			var sum float64
			var runErr error
			sp = tr.beginArg(0, spLayerRun, op, 0, parent, arg)
			elapsed, err := env.Layer.Run(func(tc exec.TC) {
				maps := []device.Map{device.MapTofrom(a)}
				for j := 0; j < deviceKernels && runErr == nil; j++ {
					in := tr.begin(0, spDevice, op, j, sp)
					var r device.Result
					r, runErr = rt.Target(tc, maps, k)
					tr.end(in)
					sum = r.Reduced
				}
				rt.Close(tc)
			})
			tr.end(sp)
			if err == nil {
				err = runErr
			}
			if err == nil && sum != want {
				err = fmt.Errorf("device cell: league sum %v, want %v", sum, want)
			}
			return elapsedOut(env, elapsed), err
		},
	}
}

// desCells is the pass, about a quarter of a second of host time so that
// a run has some forty samples. All four EPCC suites run under RTK; Linux
// and PIK run the two cheap ones (the dear ones execute the same sim ->
// exec.SimLayer -> omp code with another cost table), and CG and MG run
// at 16 threads.
func desCells() []desCell {
	var cells []desCell
	for _, suite := range epcc.Suites() {
		cells = append(cells, epccCell(machine.PHI, false, 64, core.RTK, suite))
	}
	for _, kind := range []core.Kind{core.Linux, core.PIK} {
		for _, suite := range []string{"SYNCH", "ARRAY"} {
			cells = append(cells, epccCell(machine.PHI, false, 64, kind, suite))
		}
	}
	return append(cells,
		epccCell(machine.XEON8, true, 192, core.RTK, "SYNCH"),
		nasCell("EP", core.RTK, 64), nasCell("EP", core.Linux, 64),
		nasCell("CG", core.RTK, 16), nasCell("MG", core.Linux, 16),
		virgilCell(), deviceCell())
}

func setupDES(seed int64, _ int) instance {
	d := &desInst{simSeed: int64(uint64(seed)*2654435761%1_000_000_007) + 1, cells: desCells()}
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	dg := digester{h}
	dg.i64(d.simSeed)
	for r := 0; r < desOrders; r++ {
		order := rng.Perm(len(d.cells))
		d.orders = append(d.orders, order)
		for _, c := range order {
			dg.i64(int64(c))
		}
	}
	d.hash = h.Sum64()
	// The reference pass: what every later pass must reproduce.
	d.ref = make([]cellOut, len(d.cells))
	for c := range d.cells {
		out, err := d.cells[c].run(d, nil, 0, 0)
		if err != nil {
			panic(fmt.Sprintf("benchmark: des_regen cell %s: %v", d.cells[c].name, err))
		}
		d.ref[c] = out
		d.total.events += out.events
		d.total.spilled += out.spilled
		d.total.virtualN += out.virtualN
	}
	th := fnv.New64a()
	for _, out := range d.ref {
		digester{th}.i64(int64(out.digest))
	}
	d.total.digest = th.Sum64()
	return d
}

func (d *desInst) clients() int    { return 1 }
func (d *desInst) slots() []string { return []string{"client"} }

func (d *desInst) op(_ int, i uint32, tr *tracer) bool {
	opSpan := tr.begin(0, spOp, i, 0, 0)
	ok := true
	for _, c := range d.orders[int(i)%len(d.orders)] {
		out, err := d.cells[c].run(d, tr, i, opSpan)
		ok = ok && err == nil && out == d.ref[c]
	}
	tr.end(opSpan)
	return ok
}

func (d *desInst) seqHash() uint64 { return d.hash }
func (d *desInst) corrupt()        { d.ref[0].digest++ }
func (d *desInst) close()          {}

func (d *desInst) layers(tr *tracer, traced *phase, out metricSet) {
	// Host time inside the simulator per op: the Layer.Run spans, and
	// nas.RunModel, which makes its own Layer.Run.
	runNS := map[uint32]float64{}
	tr.each(func(_ int, _ spanID, s *span) {
		if s.kind == spLayerRun || s.kind == spNASModel {
			runNS[s.op] += float64(s.end - s.start)
		}
	})
	var perOp []float64
	for _, ns := range runNS {
		perOp = append(perOp, ns)
	}
	hostNS := median(perOp)
	out.set("sim.events_per_s", float64(d.total.events)/(hostNS/1e9))
	out.set("sim.host_ns_per_event", hostNS/float64(d.total.events))
	out.set("sim.events_fired", float64(d.total.events))
	out.set("sim.events_spilled", float64(d.total.spilled))
	out.set("sim.virtual_ns_total", float64(d.total.virtualN))
	out.set("sim.virtual_digest48", float64(d.total.digest&(1<<48-1)))
	out.set("simlayer.run_ms_p50", median(tr.durs(spLayerRun, nil))/1e6)
	out.set("nas.model_run_ms_p50", median(tr.durs(spNASModel, nil))/1e6)
	for name, k := range map[string]core.Kind{"linux": core.Linux, "rtk": core.RTK, "pik": core.PIK, "cck": core.CCK} {
		build := tr.durs(spEnvBuild, func(s *span) bool { return core.Kind(s.arg&7) == k && s.arg>>7 == 0 })
		out.set("core.env_build_ms."+name, median(build)/1e6)
	}
	for i, suite := range []string{"array", "schedule", "synch", "task"} {
		want := uint8(spanArg(core.RTK, i, false))
		runs := tr.durs(spEPCCRun, func(s *span) bool { return s.arg == want })
		out.set("epcc.suite_ms."+suite, median(runs)/1e6)
	}
	out.set("virgil.submit_host_us", median(tr.durs(spVirgil, nil))/1e3/virgilTasks)
	out.set("device.target_host_us", median(tr.durs(spDevice, nil))/1e3)
}
