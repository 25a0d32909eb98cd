package cck

import (
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/virgil"
)

// CostScale lets an environment transform a region's estimated compute
// cost into effective virtual time (adding TLB, paging and NUMA factors).
// The identity scale returns cost unchanged.
type CostScale func(mem MemProfile, costNS int64) int64

// IdentityScale returns costs unchanged.
func IdentityScale(_ MemProfile, costNS int64) int64 { return costNS }

// landingCombineNS is the landing task's per-chunk combine cost for
// reduction groups.
const landingCombineNS = 12

// RunVirgil executes the compiled program on a VIRGIL runtime: the CCK
// back-end's output (§5.4). Each parallel region submits its chunks as
// immediately-ready tasks and waits on a compiler-generated landing
// group; sequential regions run inline on the calling thread.
func (c *Compiled) RunVirgil(tc exec.TC, rt virgil.Runtime, scale CostScale) {
	if scale == nil {
		scale = IdentityScale
	}
	for _, cf := range c.Fns {
		for i := range cf.Regions {
			r := &cf.Regions[i]
			switch n := r.Node.(type) {
			case *Seq:
				runSeq(tc, n, scale)
			case *Loop:
				c.runLoopRegion(tc, rt, r, n, scale)
			}
		}
	}
}

// runSeq charges a sequential region's scaled cost on tc and runs its
// body inline.
func runSeq(tc exec.TC, s *Seq, scale CostScale) {
	if cost := scale(s.Mem, s.CostNS); cost > 0 {
		tc.Charge(cost)
	}
	if s.Run != nil {
		s.Run()
	}
}

// runLoopSerial charges a whole loop's scaled cost on tc and runs every
// iteration inline.
func runLoopSerial(tc exec.TC, l *Loop, scale CostScale) {
	if cost := scale(l.Mem, l.TotalCost()); cost > 0 {
		tc.Charge(cost)
	}
	if l.Body != nil {
		for i := 0; i < l.N; i++ {
			l.Body(i)
		}
	}
}

// regionEvent emits a ParallelBegin or ParallelEnd for a task-parallel
// region when a spine is attached. tasks is the region's task count
// (chunks, pipeline stages, or HELIX workers), carried in Arg0.
func (c *Compiled) regionEvent(tc exec.TC, k ompt.Kind, region uint64, tasks int) {
	if sp := c.Spine; sp.Enabled(k) {
		sp.Emit(ompt.Event{Kind: k, Thread: int32(tc.CPU()), CPU: int32(tc.CPU()),
			TimeNS: tc.Now(), Region: region, Arg0: int64(tasks)})
	}
}

func (c *Compiled) runLoopRegion(tc exec.TC, rt virgil.Runtime, r *Region, head *Loop, scale CostScale) {
	loops := r.fusedLoops
	if r.Strategy == StratPipeline {
		region := c.regionSeq.Add(1)
		c.regionEvent(tc, ompt.ParallelBegin, region, len(head.Stages))
		runDSWP(tc, rt, head, scale)
		c.regionEvent(tc, ompt.ParallelEnd, region, len(head.Stages))
		return
	}
	if r.Strategy == StratHELIX {
		workers := c.Opt.Workers
		if workers > head.N {
			workers = head.N
		}
		region := c.regionSeq.Add(1)
		c.regionEvent(tc, ompt.ParallelBegin, region, workers)
		runHELIX(tc, rt, head, c.Opt.Workers, scale)
		c.regionEvent(tc, ompt.ParallelEnd, region, workers)
		return
	}
	if r.Strategy == StratSequential {
		for _, l := range loops {
			runLoopSerial(tc, l, scale)
		}
		return
	}
	region := c.regionSeq.Add(1)
	c.regionEvent(tc, ompt.ParallelBegin, region, len(r.Chunks))
	defer c.regionEvent(tc, ompt.ParallelEnd, region, len(r.Chunks))
	g := virgil.NewGroup(len(r.Chunks))
	fns := make([]func(exec.TC), len(r.Chunks))
	for ci, ch := range r.Chunks {
		ch := ch
		fns[ci] = func(wtc exec.TC) {
			for _, l := range loops {
				if cost := scale(l.Mem, l.RangeCost(ch.Lo, ch.Hi)); cost > 0 {
					wtc.Charge(cost)
				}
				if l.Body != nil {
					for i := ch.Lo; i < ch.Hi; i++ {
						l.Body(i)
					}
				}
			}
			g.Done(wtc)
		}
	}
	rt.SubmitBatch(tc, fns)
	g.Wait(tc)
	if r.Strategy == StratTasksReduction {
		// Landing task combines the per-chunk partials.
		tc.Charge(int64(len(r.Chunks)) * landingCombineNS)
	}
}

// RunOpenMP executes the *source* program through the conventional
// OpenMP pipeline — the baseline CCK is compared against. Pragmas are
// followed blindly: parallel-for loops run under the runtime with the
// pragma's schedule (libomp's default coarse static partition when
// unspecified), everything else stays sequential.
func RunOpenMP(tc exec.TC, p *Program, rt *omp.Runtime, threads int, scale CostScale) {
	if scale == nil {
		scale = IdentityScale
	}
	for _, fn := range p.Funcs {
		for _, n := range fn.Body {
			switch n := n.(type) {
			case *Seq:
				runSeq(tc, n, scale)
			case *Loop:
				runOpenMPLoop(tc, n, rt, threads, scale)
			}
		}
	}
}

func runOpenMPLoop(tc exec.TC, l *Loop, rt *omp.Runtime, threads int, scale CostScale) {
	if l.Pragma == nil || l.Pragma.Kind != PragmaParallelFor {
		// No directive: the conventional pipeline has no automatic
		// parallelization; the loop stays sequential.
		runLoopSerial(tc, l, scale)
		return
	}
	opt := omp.ForOpt{Sched: omp.Static}
	switch l.Pragma.Schedule {
	case "dynamic":
		opt = omp.ForOpt{Sched: omp.Dynamic, Chunk: l.Pragma.Chunk}
	case "guided":
		opt = omp.ForOpt{Sched: omp.Guided, Chunk: l.Pragma.Chunk}
	case "static":
		opt.Chunk = l.Pragma.Chunk
	}
	rt.Parallel(tc, threads, func(w *omp.Worker) {
		w.For(0, l.N, opt, func(lo, hi int) {
			if cost := scale(l.Mem, l.RangeCost(lo, hi)); cost > 0 {
				w.TC().Charge(cost)
			}
			if l.Body != nil {
				for i := lo; i < hi; i++ {
					l.Body(i)
				}
			}
		})
	})
}
