package nas

import (
	"fmt"

	"github.com/interweaving/komp/internal/cck"
	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/linuxsim"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/virgil"
)

// Pipeline selects the compilation pipeline for a model run.
type Pipeline int

// Pipelines.
const (
	// PipeOpenMP is the conventional pipeline: pragmas lowered onto the
	// OpenMP runtime (Linux, RTK, PIK).
	PipeOpenMP Pipeline = iota
	// PipeAutoMP is the CCK pipeline: AutoMP task extraction onto VIRGIL
	// (Linux+AutoMP, NK+AutoMP).
	PipeAutoMP
)

func (p Pipeline) String() string {
	if p == PipeAutoMP {
		return "automp"
	}
	return "openmp"
}

// profile returns the machine calibration, which must exist.
func (s *Spec) profile(m *machine.Machine) MachineProfile {
	p, ok := s.Profiles[m.Name]
	if !ok {
		panic(fmt.Sprintf("nas: %s has no profile for machine %s", s.Name, m.Name))
	}
	return p
}

// memProfile builds the cck.MemProfile for this spec at a thread count.
func (s *Spec) memProfile(m *machine.Machine, threads int) cck.MemProfile {
	p := s.profile(m)
	return cck.MemProfile{
		WorkingSetBytes:  s.WorkingSetBytes / int64(threads),
		TLBPressure:      p.TLBPressure,
		MemBoundFrac:     s.MemBoundFrac,
		Footprint:        s.WorkingSetBytes,
		StaticLayoutFrac: p.StaticFrac,
		KernelFrac:       p.KernelFrac,
		SatThreads:       p.SatThreads,
	}
}

// baseNS returns the clean (overhead-free) sequential compute cost,
// calibrated so that the Linux environment at one thread reproduces the
// paper's measured t.
func (s *Spec) baseNS(m *machine.Machine) float64 {
	p := s.profile(m)
	mult := core.Multiplier(m, core.Linux, linuxsim.PageSize, 1, s.memProfile(m, 1), 0)
	// The paper's t includes the one-time demand-paging fault-in, which
	// the runner charges separately; remove it from the compute base.
	faultNS := float64(float64(s.WorkingSetBytes) / linuxsim.PageSize * linuxsim.PageFaultNS)
	return (float64(p.TimeSec*1e9) - faultNS) / mult
}

// Program builds the cck IR for this benchmark on a machine for a given
// pipeline. The AutoMP pipeline applies the whole-function codegen factor.
func (s *Spec) Program(m *machine.Machine, threads int, pipe Pipeline) *cck.Program {
	base := s.baseNS(m)
	if pipe == PipeAutoMP {
		base *= s.AutoMPSerial
	}
	mem := s.memProfile(m, threads)
	fn := &cck.Function{Name: "main"}
	prevObj := ""
	for step := 0; step < s.Steps; step++ {
		for _, ls := range s.Loops {
			loopCost := base * ls.Share / float64(s.Steps)
			perIter := loopCost / float64(ls.N)
			l := &cck.Loop{
				Name:   fmt.Sprintf("%s_t%03d", ls.Name, step),
				N:      ls.N,
				CostNS: int64(perIter),
				Skew:   ls.Skew,
				Mem:    mem,
			}
			obj := ls.Name + "_data"
			// Consume the previous loop's output: elementwise reads keep
			// fusion legal; global reads (transposes, direction changes,
			// and every step boundary) block it.
			if prevObj != "" {
				pat := cck.SharedRO
				if ls.Reads == ReadElementwise {
					pat = cck.Disjoint
				}
				l.Effects = append(l.Effects, cck.Effect{Obj: prevObj, Mode: cck.Read, Pattern: pat})
			}
			switch ls.Pattern {
			case PatDOALL:
				l.Effects = append(l.Effects, cck.Effect{Obj: obj, Mode: cck.ReadWrite, Pattern: cck.Disjoint})
				l.Pragma = &cck.Pragma{Kind: cck.PragmaParallelFor, Independent: true}
			case PatReduction:
				l.Effects = append(l.Effects,
					cck.Effect{Obj: obj, Mode: cck.ReadWrite, Pattern: cck.Disjoint},
					cck.Effect{Obj: ls.Name + "_acc", Mode: cck.ReadWrite, Pattern: cck.ReductionAcc})
				l.Pragma = &cck.Pragma{Kind: cck.PragmaParallelFor, Independent: true,
					Reductions: map[string]string{ls.Name + "_acc": "+"}}
			case PatPrivate:
				l.Effects = append(l.Effects,
					cck.Effect{Obj: obj, Mode: cck.ReadWrite, Pattern: cck.Disjoint},
					cck.Effect{Obj: ls.Name + "_scratch", Mode: cck.ReadWrite, Pattern: cck.PrivateScratch})
				l.Pragma = &cck.Pragma{Kind: cck.PragmaParallelFor, Independent: true,
					Private: []string{ls.Name + "_scratch"}}
			case PatSequential:
				l.Effects = append(l.Effects, cck.Effect{Obj: obj, Mode: cck.ReadWrite, Pattern: cck.SharedRW})
			}
			prevObj = obj
			fn.Body = append(fn.Body, l)
		}
	}
	return &cck.Program{
		Name:  fmt.Sprintf("%s.%s-%s", s.Name, s.Class, pipe),
		Funcs: []*cck.Function{fn},
	}
}

// RunResult is a measured model run.
type RunResult struct {
	Spec     *Spec
	Env      core.Kind
	Machine  string
	Threads  int
	Pipeline Pipeline
	Seconds  float64
}

// RunModel executes the benchmark model in an environment and returns
// the virtual run time in seconds. The environment must have been
// constructed for the same machine and thread count.
func RunModel(env *core.Env, s *Spec, threads int) (RunResult, error) {
	pipe := PipeOpenMP
	if env.AutoMP {
		pipe = PipeAutoMP
	}
	prog := s.Program(env.Machine, threads, pipe)

	// Allocate and fault in the benchmark's data, with the environment's
	// placement policy; derive the average remote-access fraction.
	region := env.AS.Alloc(s.Name+"-data", s.WorkingSetBytes, 0)
	var faultNS float64
	for t := 0; t < threads; t++ {
		faultNS += env.AS.TouchSlice(region, t, t, threads)
	}
	var remote float64
	for t := 0; t < threads; t++ {
		remote += env.AS.RemoteFractionSlice(region, t, t, threads)
	}
	remote /= float64(threads)
	scale := env.Scale(remote)

	res := RunResult{Spec: s, Env: env.Kind, Machine: env.Machine.Name, Threads: threads, Pipeline: pipe}

	var compiled *cck.Compiled
	if pipe == PipeAutoMP {
		var err error
		compiled, err = cck.Compile(prog, cck.Options{Workers: threads, Fuse: true})
		if err != nil {
			return res, err
		}
	}

	elapsed, err := runTimed(env, func(tc exec.TC) {
		// Demand-paging faults hit on first touch, in parallel.
		if faultNS > 0 {
			tc.Charge(int64(faultNS / float64(threads)))
		}
		if pipe == PipeAutoMP {
			env.WithVirgil(tc, func(v virgil.Runtime) { compiled.RunVirgil(tc, v, scale) })
		} else {
			rt := env.OMPRuntime()
			cck.RunOpenMP(tc, prog, rt, threads, scale)
			rt.Close(tc)
		}
	})
	if err != nil {
		return res, err
	}
	res.Seconds = float64(elapsed) / 1e9
	return res, nil
}

// RunOffloadModel executes the benchmark model in the device
// environment — the fourth configuration next to Linux, Linux+AutoMP
// and NK+AutoMP: the AutoMP pipeline with every DOALL region lowered to
// `teams distribute` kernels on the environment's accelerator
// (machine.WithDevice), operands hoisted around the run target-data
// style. teams sizes the league the chunker targets (0: one team per
// compute unit).
func RunOffloadModel(env *core.Env, s *Spec, teams int) (RunResult, error) {
	d := env.Device()
	if d == nil {
		return RunResult{}, fmt.Errorf("nas: environment machine has no device (use machine.WithDevice)")
	}
	if teams <= 0 {
		teams = d.Topo().CUs
	}
	prog := s.Program(env.Machine, teams, PipeAutoMP)
	res := RunResult{Spec: s, Env: env.Kind, Machine: env.Machine.Name, Threads: teams, Pipeline: PipeAutoMP}
	compiled, err := cck.Compile(prog, cck.Options{Workers: teams, Fuse: true})
	if err != nil {
		return res, err
	}
	var runErr error
	elapsed, err := runTimed(env, func(tc exec.TC) {
		runErr = compiled.RunOffload(tc, d, env.Scale(0), cck.OffloadOpt{Hoist: true})
	})
	if err != nil {
		return res, err
	}
	if runErr != nil {
		return res, runErr
	}
	res.Seconds = float64(elapsed) / 1e9
	return res, nil
}

func runTimed(env *core.Env, fn func(exec.TC)) (int64, error) {
	return env.Layer.Run(fn)
}
