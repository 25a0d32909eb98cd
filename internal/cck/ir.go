// Package cck implements the custom compilation for kernel (CCK) pipeline
// of §5: a small explicit IR carrying OpenMP semantics as metadata, a
// NOELLE-analogue dependence analysis that exploits that metadata, and the
// AutoMP transformation that reduces all OpenMP parallelism to independent
// tasks for the VIRGIL runtime.
//
// The front-end difference the paper describes — annotating the AST
// instead of outlining regions — appears here as the IR keeping every
// region inline in one function body with pragma metadata attached, so
// the analyses see the whole function (§5.2).
package cck

import "fmt"

// EffectMode describes how a region touches an abstract memory object.
type EffectMode int

// Effect modes.
const (
	Read EffectMode = iota
	Write
	ReadWrite
)

func (m EffectMode) String() string {
	switch m {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return "readwrite"
	}
}

// AccessPattern describes the relationship between loop iterations and the
// touched object — the granularity NOELLE-style memory analysis reasons
// at, sharpened by the OpenMP metadata.
type AccessPattern int

// Access patterns.
const (
	// Disjoint: iteration i touches a slice of the object disjoint from
	// every other iteration's (a[i] = ...). No loop-carried dependence.
	Disjoint AccessPattern = iota
	// SharedRO: all iterations read the same data.
	SharedRO
	// SharedRW: iterations read and write overlapping data: a loop-
	// carried dependence unless the pragma asserts independence.
	SharedRW
	// ReductionAcc: iterations accumulate into the object with an
	// associative operator (sum/max/...): parallelizable with partial
	// accumulators.
	ReductionAcc
	// PrivateScratch: every iteration writes and reads a whole scratch
	// object (the OpenMP private/firstprivate array case). Parallel
	// execution requires per-thread privatization of the object.
	PrivateScratch
)

func (p AccessPattern) String() string {
	switch p {
	case Disjoint:
		return "disjoint"
	case SharedRO:
		return "shared-ro"
	case SharedRW:
		return "shared-rw"
	case ReductionAcc:
		return "reduction"
	default:
		return "private-scratch"
	}
}

// Effect is one memory effect of a region on a named object.
type Effect struct {
	Obj     string
	Mode    EffectMode
	Pattern AccessPattern
}

// PragmaKind is the OpenMP construct a pragma annotates.
type PragmaKind int

// Pragma kinds.
const (
	PragmaNone PragmaKind = iota
	PragmaParallelFor
	PragmaCritical
	PragmaAtomic
)

// Pragma is the OpenMP metadata the front-end attaches to the IR instead
// of outlining (§5.2). It asserts semantics the analysis alone may not
// prove.
type Pragma struct {
	Kind PragmaKind
	// Independent asserts the iterations are dependence-free (the core
	// meaning of "#pragma omp parallel for").
	Independent bool
	// Private lists objects the directive privatizes per thread.
	Private []string
	// Reductions maps object names to their reduction operator names.
	Reductions map[string]string
	// Schedule metadata for the conventional OpenMP lowering.
	Schedule string // "static", "dynamic", "guided"
	Chunk    int
	NoWait   bool
}

// MemProfile is the memory behaviour metadata of a region, consumed by
// the environment cost models (working set drives TLB reach, traffic
// drives NUMA sensitivity).
type MemProfile struct {
	// WorkingSetBytes is the per-thread steady-state working set.
	WorkingSetBytes int64
	// TLBPressure is the asymptotic fraction of run time lost to
	// translation when the TLB covers none of the working set (0..1).
	TLBPressure float64
	// MemBoundFrac is the fraction of run time bound on memory latency /
	// bandwidth (drives NUMA remote-access sensitivity).
	MemBoundFrac float64
	// Footprint is the total bytes the region touches (drives first-
	// touch fault volume).
	Footprint int64
	// StaticLayoutFrac is the fraction of run time lost to suboptimal
	// static-data layout and code-model effects that only boot-image
	// placement (RTK/CCK static linkage into the kernel) removes.
	StaticLayoutFrac float64
	// KernelFrac is the fraction of run time lost to the user-level
	// environment as a whole — demand paging, OS noise beyond the
	// explicit noise model, competing threads — removed by every
	// in-kernel path (RTK, PIK, CCK).
	KernelFrac float64
	// SatThreads is the thread count at which memory-system saturation
	// starts washing out per-environment overheads (both environments
	// end up waiting on the same DRAM); 0 disables damping.
	SatThreads float64
}

// Node is an IR node: a Loop or a Seq.
type Node interface {
	NodeName() string
	Reads() []Effect
}

// Seq is a straight-line (sequential) region.
type Seq struct {
	Name    string
	CostNS  int64
	Effects []Effect
	Mem     MemProfile
	// Run optionally executes real semantics (tests and examples).
	Run func()
}

// NodeName returns the region name.
func (s *Seq) NodeName() string { return s.Name }

// Reads returns the region's effects.
func (s *Seq) Reads() []Effect { return s.Effects }

// Loop is a counted loop region, the unit AutoMP parallelizes.
type Loop struct {
	Name string
	N    int
	// CostNS is the mean per-iteration latency estimate (the quantity
	// AutoMP's parallelism-aware data-flow analysis computes, §6.2).
	CostNS int64
	// Skew makes iteration costs non-uniform: iteration i costs
	// CostNS * (1 + Skew*(2*i/(N-1) - 1)); Skew in [0,1). Zero means
	// uniform. Triangular skew models the imbalanced loops of MG/CG.
	Skew float64
	// Effects lists per-iteration memory effects.
	Effects []Effect
	// Pragma is the attached OpenMP metadata (nil for plain sequential
	// source, the automatic-parallelization case).
	Pragma *Pragma
	Mem    MemProfile
	// Stages optionally decomposes the body for DSWP pipelining: a loop
	// whose iterations carry a dependence can still run as a pipeline
	// when its stages' cross-iteration dependences form a chain (§5.3
	// lists DSWP among AutoMP's techniques).
	Stages []StageSpec
	// Body optionally executes real per-iteration semantics.
	Body func(i int)
}

// NodeName returns the loop name.
func (l *Loop) NodeName() string { return l.Name }

// Reads returns the loop's effects.
func (l *Loop) Reads() []Effect { return l.Effects }

// IterCost returns the estimated cost of iteration i.
func (l *Loop) IterCost(i int) int64 {
	if l.Skew == 0 || l.N <= 1 {
		return l.CostNS
	}
	frac := 2*float64(i)/float64(l.N-1) - 1 // -1..1
	return int64(float64(l.CostNS) * (1 + float64(l.Skew*frac)))
}

// TotalCost returns the summed iteration cost estimate.
func (l *Loop) TotalCost() int64 {
	if l.Skew == 0 {
		return int64(l.N) * l.CostNS
	}
	var t int64
	for i := 0; i < l.N; i++ {
		t += l.IterCost(i)
	}
	return t
}

// RangeCost returns the summed cost of iterations [lo, hi).
func (l *Loop) RangeCost(lo, hi int) int64 {
	if l.Skew == 0 {
		return int64(hi-lo) * l.CostNS
	}
	var t int64
	for i := lo; i < hi; i++ {
		t += l.IterCost(i)
	}
	return t
}

// Function is a sequence of regions with shared state.
type Function struct {
	Name string
	Body []Node
}

// Program is a compilation unit.
type Program struct {
	Name  string
	Funcs []*Function
}

// Validate checks structural invariants of the program.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("cck: program without name")
	}
	seen := map[string]bool{}
	for _, f := range p.Funcs {
		for _, n := range f.Body {
			if n.NodeName() == "" {
				return fmt.Errorf("cck: %s: unnamed region", f.Name)
			}
			key := f.Name + "." + n.NodeName()
			if seen[key] {
				return fmt.Errorf("cck: duplicate region %s", key)
			}
			seen[key] = true
			if l, ok := n.(*Loop); ok {
				if l.N < 0 {
					return fmt.Errorf("cck: %s: negative trip count", key)
				}
				if l.Skew < 0 || l.Skew >= 1 {
					return fmt.Errorf("cck: %s: skew %v out of [0,1)", key, l.Skew)
				}
				for _, e := range l.Effects {
					if e.Obj == "" {
						return fmt.Errorf("cck: %s: effect without object", key)
					}
				}
			}
		}
	}
	return nil
}
