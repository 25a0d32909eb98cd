// Package device is the accelerator subsystem: a GPU-like device model
// and a device-side runtime for OpenMP target offload, fully
// deterministic on the DES clock.
//
// The device executes `teams distribute` kernels as a league of team
// contexts dealt over compute units (CUs), in the state-machine style of
// the portable OpenMP 5.1 GPU runtime (arXiv 2106.03219): the league
// engine advances per-CU virtual timelines block by block, so a kernel's
// device time is the max over CU timelines, faults can strike mid-kernel
// between blocks, and the host thread's clock only ever advances to
// block start times and the final completion — never the sum of
// concurrent work. Lane-level worksharing inside a team is modeled in
// lockstep SIMT steps (ceil(iters/lanes) lane-steps per block), and
// league-wide reductions combine per-team first, then across teams in a
// fanout tree — the fused-reduction shape of the host barrier.
//
// Host↔device data movement goes through a map table (map.go) with
// reference-counted, address-translated mappings and a single DMA
// engine modeled as an exec.Line: transfers serialize on it and charge
// link latency plus bytes/bandwidth on the DES clock, which is the whole
// determinism argument — the engine's occupancy is a pure function of
// the (deterministic) order in which procs reach Contend.
//
// Kernels carry real Go bodies: results are computed for real on the
// host thread while time is charged from the model, the same
// "real semantics, modeled timing" split the rest of the repository
// uses. On the real execution layer every charge is a no-op and the
// bodies simply run.
package device

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/ompt"
)

// Dev is one accelerator instance: topology, map table, per-CU
// timelines, and fault state. A Dev may be shared by several host
// threads (target nowait tasks launch concurrently); the mutex guards
// the table and timelines and is never held across a charge.
type Dev struct {
	topo *machine.Device
	id   int
	sp   *ompt.Spine

	mu      sync.Mutex
	inited  bool
	bufs    map[uintptr]*buffer
	alloced int64
	offline []bool
	cuFree  []int64 // per-CU virtual busy-until, persistent across kernels

	dma exec.Line // the host↔device transfer engine

	bytesH2D  atomic.Int64
	bytesD2H  atomic.Int64
	targetSeq atomic.Uint64
	redeals   atomic.Int64
	kernels   atomic.Int64
}

// New builds a device instance over a topology model. id is the OpenMP
// device number the instance answers to (events carry it).
func New(topo *machine.Device, id int, sp *ompt.Spine) *Dev {
	return &Dev{
		topo:    topo,
		id:      id,
		sp:      sp,
		bufs:    map[uintptr]*buffer{},
		offline: make([]bool, topo.CUs),
		cuFree:  make([]int64, topo.CUs),
	}
}

// Topo returns the device's topology model.
func (d *Dev) Topo() *machine.Device { return d.topo }

// deviceInitNS is the one-time driver/device bring-up cost charged on
// first use (context creation, firmware handshake).
const deviceInitNS = 20000

// Init brings the device up on first use: idempotent, charged once, and
// emits DeviceInit with the geometry. Every offload entry point calls
// it, so a bare Launch or Enter works without ceremony.
func (d *Dev) Init(tc exec.TC) {
	d.mu.Lock()
	first := !d.inited
	d.inited = true
	d.mu.Unlock()
	if !first {
		return
	}
	tc.Charge(deviceInitNS)
	if d.sp.Enabled(ompt.DeviceInit) {
		d.sp.Emit(ompt.Event{Kind: ompt.DeviceInit, Thread: -1, CPU: int32(tc.CPU()),
			TimeNS: tc.Now(), Obj: uint64(d.id),
			Arg0: int64(d.topo.CUs), Arg1: int64(d.topo.LanesPerCU)})
	}
}

// OfflineCU marks a compute unit dead, as a scheduled fault does: the
// league engine stops dealing to it and re-deals its queued blocks to
// surviving teams at the next block boundary. Marking an already-dead
// CU is a no-op.
func (d *Dev) OfflineCU(cu int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cu >= 0 && cu < len(d.offline) {
		d.offline[cu] = true
	}
}

// OnlineCUs returns the number of compute units still alive.
func (d *Dev) OnlineCUs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, off := range d.offline {
		if !off {
			n++
		}
	}
	return n
}

// onlineList snapshots the live CU ids in ascending order.
func (d *Dev) onlineList() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var cus []int
	for cu, off := range d.offline {
		if !off {
			cus = append(cus, cu)
		}
	}
	return cus
}

// Stats is the device's cumulative traffic and fault accounting.
type Stats struct {
	BytesH2D, BytesD2H int64
	Kernels            int64
	Redeals            int64 // blocks re-dealt off dead CUs
	AllocatedBytes     int64 // currently mapped device memory
}

// Stats returns a snapshot of the counters.
func (d *Dev) Stats() Stats {
	d.mu.Lock()
	alloced := d.alloced
	d.mu.Unlock()
	return Stats{
		BytesH2D:       d.bytesH2D.Load(),
		BytesD2H:       d.bytesD2H.Load(),
		Kernels:        d.kernels.Load(),
		Redeals:        d.redeals.Load(),
		AllocatedBytes: alloced,
	}
}

// StageBytes models a raw DMA transfer of n bytes with no map-table
// entry — the offload compiler's bulk staging path, where the data is
// modeled rather than materialized as a host object. It occupies the
// same transfer engine (and the same counters) as mapped transfers.
func (d *Dev) StageBytes(tc exec.TC, n int64, h2d bool) {
	if n <= 0 {
		return
	}
	d.Init(tc)
	tc.Contend(&d.dma, d.topo.TransferNS(n))
	if h2d {
		d.bytesH2D.Add(n)
		d.emitData(tc, opH2D, n)
	} else {
		d.bytesD2H.Add(n)
		d.emitData(tc, opD2H, n)
	}
}

func (d *Dev) emitData(tc exec.TC, op int64, bytes int64) {
	if d.sp.Enabled(ompt.DataOp) {
		d.sp.Emit(ompt.Event{Kind: ompt.DataOp, Thread: -1, CPU: int32(tc.CPU()),
			TimeNS: tc.Now(), Obj: uint64(d.id), Arg0: bytes, Arg1: op})
	}
}

// Data-op codes carried in ompt.DataOp's Arg1.
const (
	opAlloc = iota
	opH2D
	opD2H
	opDelete
)

func (d *Dev) failf(format string, args ...any) {
	panic(fmt.Sprintf("device %d: "+format, append([]any{d.id}, args...)...))
}
