// offload.go lowers AutoMP output to device work-groups, in the style
// pocl uses for OpenCL kernels (arXiv 1611.07083): every DOALL region
// the middle-end proved independent becomes a `teams distribute` kernel
// whose work-group size is the device's lane width, while regions that
// stayed sequential (or carry cross-iteration dependences the pipeline
// and HELIX strategies exploit on the host) execute serially on the
// launching thread — the device environment has a host core driving the
// accelerator, not a host worker pool.
package cck

import (
	"github.com/interweaving/komp/internal/device"
	"github.com/interweaving/komp/internal/exec"
)

// OffloadOpt tunes the device lowering.
type OffloadOpt struct {
	// Hoist stages every offloaded region's footprint once, before the
	// first kernel and after the last (the `target data` pattern);
	// without it each region stages its footprint to the device and back
	// around its own launch (the naive per-region tofrom pattern).
	Hoist bool
	// LaneSlowdown is the per-iteration latency ratio of one SIMT lane
	// to the host core the IR's CostNS was estimated on; 0 uses
	// DefaultLaneSlowdown. Device lanes are simple in-order units.
	LaneSlowdown float64
}

// DefaultLaneSlowdown is the default lane/host per-iteration latency
// ratio.
const DefaultLaneSlowdown = 4.0

// RunOffload executes the compiled program with DOALL regions lowered
// to kernels on d: the CCK pipeline retargeted at an accelerator.
// Sequential, pipeline and HELIX regions run on the host thread with
// their environment-scaled cost. Returns device.ErrDeviceLost if the
// accelerator loses every compute unit mid-run.
func (c *Compiled) RunOffload(tc exec.TC, d *device.Dev, scale CostScale, opt OffloadOpt) error {
	if scale == nil {
		scale = IdentityScale
	}
	slow := opt.LaneSlowdown
	if slow <= 0 {
		slow = DefaultLaneSlowdown
	}
	var hoisted int64
	if opt.Hoist {
		// target data: one staging pass covers every offloaded region.
		for _, cf := range c.Fns {
			for i := range cf.Regions {
				if r := &cf.Regions[i]; offloadable(r) {
					for _, l := range r.fusedLoops {
						hoisted += l.Mem.Footprint
					}
				}
			}
		}
		d.StageBytes(tc, hoisted, true)
	}
	for _, cf := range c.Fns {
		for i := range cf.Regions {
			r := &cf.Regions[i]
			if !offloadable(r) {
				runHostRegion(tc, r, scale)
				continue
			}
			if err := c.offloadRegion(tc, d, r, slow, opt.Hoist); err != nil {
				return err
			}
		}
	}
	if opt.Hoist {
		d.StageBytes(tc, hoisted, false)
	}
	return nil
}

// offloadable reports whether AutoMP proved the region independent —
// the precondition for lowering it to a device work-group grid.
func offloadable(r *Region) bool {
	return r.Strategy == StratTasks || r.Strategy == StratTasksReduction
}

// offloadRegion launches one DOALL region as a kernel. The fused loops
// share a trip count; their bodies concatenate into the work-item and
// their per-iteration costs sum. The distribute chunk reuses the
// latency-aware chunker's decision, so the device sees the same task
// granularity the host pipeline chose.
func (c *Compiled) offloadRegion(tc exec.TC, d *device.Dev, r *Region, slow float64, hoisted bool) error {
	head := r.Node.(*Loop)
	loops := r.fusedLoops
	var iterNS, bytesPerIter, footprint int64
	for _, l := range loops {
		iterNS += int64(float64(l.TotalCost()) / float64(max(l.N, 1)) * slow)
		if l.N > 0 {
			bytesPerIter += l.Mem.Footprint / int64(l.N)
		}
		footprint += l.Mem.Footprint
	}
	chunk := 0
	if len(r.Chunks) > 0 {
		chunk = r.Chunks[0].Hi - r.Chunks[0].Lo
	}
	k := device.Kernel{
		Name:         head.Name,
		N:            head.N,
		Chunk:        chunk,
		IterNS:       iterNS,
		BytesPerIter: bytesPerIter,
	}
	if anyBody(loops) {
		k.Body = func(b device.Block) float64 {
			for _, l := range loops {
				if l.Body != nil {
					for i := b.Lo; i < b.Hi; i++ {
						l.Body(i)
					}
				}
			}
			return 0
		}
	}
	if r.Strategy == StratTasksReduction {
		// The landing-task combine becomes the league reduction tree.
		k.Reduce = func(a, b float64) float64 { return a + b }
	}
	if !hoisted {
		d.StageBytes(tc, footprint, true)
	}
	_, err := d.Launch(tc, k)
	if !hoisted {
		d.StageBytes(tc, footprint, false)
	}
	return err
}

func anyBody(loops []*Loop) bool {
	for _, l := range loops {
		if l.Body != nil {
			return true
		}
	}
	return false
}

// runHostRegion executes a non-offloadable region serially on the host
// thread: the device path has no host worker pool to hand pipeline or
// HELIX schedules to.
func runHostRegion(tc exec.TC, r *Region, scale CostScale) {
	switch n := r.Node.(type) {
	case *Seq:
		runSeq(tc, n, scale)
	case *Loop:
		for _, l := range r.fusedLoops {
			runLoopSerial(tc, l, scale)
		}
	}
}
