package nas

// Structural models of the NAS benchmarks at the paper's classes. Every
// spec carries:
//
//   - the paper's measured single-thread Linux times (the t values in the
//     captions of Figs. 9-12 and 14-15), used to calibrate absolute cost;
//   - the benchmark's timestep/loop structure with OpenMP pragma
//     metadata, including which loops need object privatization (the
//     property that decides the CCK outcomes of §6.2);
//   - a memory behaviour profile per machine: the translation pressure
//     (mechanically evaluated against each environment's page size), the
//     static-layout fraction only boot-image linkage removes, the
//     user-level environment fraction every kernel path removes, and the
//     saturation point beyond which DRAM bandwidth compresses the
//     environment ratios.
//
// The layout/kernel fractions are calibrated from the paper's own Fig. 9
// and Fig. 10 single-CPU ratios (see EXPERIMENTS.md for the bookkeeping);
// everything else — scheduling, synchronization, placement, page-size
// effects, AutoMP's parallelization decisions — is computed, not assumed.

// LoopPattern classifies a model loop for dependence analysis.
type LoopPattern int

// Loop patterns.
const (
	// PatDOALL: disjoint per-iteration writes, pragma parallel for.
	PatDOALL LoopPattern = iota
	// PatReduction: DOALL plus a reduction accumulator.
	PatReduction
	// PatPrivate: needs per-thread scratch objects (private clause) —
	// parallel under OpenMP, sequential under AutoMP (§6.2).
	PatPrivate
	// PatSequential: genuinely sequential (no pragma; carried deps).
	PatSequential
)

// ReadKind classifies how a loop consumes its predecessor's output.
type ReadKind int

// Read kinds.
const (
	// ReadGlobal: the loop reads its predecessor's whole output (a
	// transpose, a stencil, a different traversal direction) — blocks
	// loop fusion.
	ReadGlobal ReadKind = iota
	// ReadElementwise: iteration i reads only element i of the
	// predecessor's output — fusable.
	ReadElementwise
)

// LoopSpec is one parallel loop of a timestep.
type LoopSpec struct {
	Name string
	// Share is this loop's fraction of a timestep's compute.
	Share float64
	// N is the trip count (the parallel dimension).
	N int
	// Pattern drives the pragma metadata and memory effects.
	Pattern LoopPattern
	// Skew makes iteration costs non-uniform (see cck.Loop.Skew); the
	// imbalanced loops where AutoMP's latency-aware chunking wins.
	Skew float64
	// Reads classifies the consumption of the previous loop's output.
	Reads ReadKind
}

// MachineProfile is the per-machine calibrated memory behaviour.
type MachineProfile struct {
	// TimeSec is the paper's single-thread Linux time.
	TimeSec float64
	// TLBPressure is the asymptotic translation overhead fraction.
	TLBPressure float64
	// StaticFrac is removed only by boot-image static linkage (RTK/CCK).
	StaticFrac float64
	// KernelFrac is removed by every in-kernel environment.
	KernelFrac float64
	// SatThreads is the DRAM saturation point (0: compute-bound).
	SatThreads float64
}

// Spec is a benchmark's structural model.
type Spec struct {
	Name  string
	Class string
	// Steps is the timestep count (scaled from the benchmark's real
	// iteration count to keep simulation event counts manageable; the
	// synchronization density per unit compute is what matters).
	Steps int
	Loops []LoopSpec
	// WorkingSetBytes is the resident data size (drives TLB reach and
	// the RTK/CCK boot-image size).
	WorkingSetBytes int64
	// MemBoundFrac drives NUMA remote-access sensitivity.
	MemBoundFrac float64
	// AutoMPSerial scales single-thread cost under the AutoMP pipeline:
	// the whole-function analysis (no outlining) sometimes produces
	// substantially better scalar code (MG, CG in Fig. 11).
	AutoMPSerial float64
	// Profiles keys machine name ("PHI", "8XEON") to calibration.
	Profiles map[string]MachineProfile
}

// Specs returns the eight benchmark models in the paper's figure order.
func Specs() []*Spec {
	return []*Spec{btSpec(), ftSpec(), epSpec(), mgSpec(), spSpec(), luSpec(), cgSpec(), isSpec()}
}

// SpecByName returns a model by name ("BT", "FT", ...).
func SpecByName(name string) *Spec {
	for _, s := range Specs() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func btSpec() *Spec {
	return &Spec{
		Name: "BT", Class: "B",
		Steps: 20,
		Loops: []LoopSpec{
			{Name: "rhs_xyz", Share: 0.40, N: 192, Pattern: PatDOALL},
			{Name: "rhs_add", Share: 0.35, N: 192, Pattern: PatDOALL, Reads: ReadElementwise},
			{Name: "x_solve", Share: 0.0833, N: 192, Pattern: PatPrivate},
			{Name: "y_solve", Share: 0.0833, N: 192, Pattern: PatPrivate},
			{Name: "z_solve", Share: 0.0834, N: 192, Pattern: PatPrivate},
		},
		WorkingSetBytes: 700 << 20,
		MemBoundFrac:    0.40,
		AutoMPSerial:    1.0,
		Profiles: map[string]MachineProfile{
			"PHI":   {TimeSec: 1813.51, TLBPressure: 0.16, StaticFrac: 0.61, KernelFrac: 0.11, SatThreads: 30},
			"8XEON": {TimeSec: 467.16, TLBPressure: 0.08, StaticFrac: 0.01, KernelFrac: 0.20, SatThreads: 120},
		},
	}
}

func ftSpec() *Spec {
	return &Spec{
		Name: "FT", Class: "B",
		Steps: 20, // FT-B's real niter
		Loops: []LoopSpec{
			{Name: "evolve", Share: 0.15, N: 192, Pattern: PatDOALL},
			{Name: "fft_x", Share: 0.28, N: 192, Pattern: PatDOALL},
			{Name: "fft_y", Share: 0.28, N: 192, Pattern: PatDOALL},
			{Name: "fft_z", Share: 0.28, N: 192, Pattern: PatDOALL},
			{Name: "checksum", Share: 0.01, N: 192, Pattern: PatReduction},
		},
		WorkingSetBytes: 1536 << 20,
		MemBoundFrac:    0.50,
		AutoMPSerial:    0.92,
		Profiles: map[string]MachineProfile{
			"PHI":   {TimeSec: 239.80, TLBPressure: 0.04, StaticFrac: 0.0, KernelFrac: 0.08, SatThreads: 90},
			"8XEON": {TimeSec: 56.72, TLBPressure: 0.05, StaticFrac: 0.02, KernelFrac: 0.28, SatThreads: 100},
		},
	}
}

func epSpec() *Spec {
	return &Spec{
		Name: "EP", Class: "C",
		Steps: 4,
		Loops: []LoopSpec{
			{Name: "gaussian_pairs", Share: 0.99, N: 192, Pattern: PatReduction},
			{Name: "histogram", Share: 0.01, N: 192, Pattern: PatDOALL},
		},
		WorkingSetBytes: 1 << 20, // per-thread state only
		MemBoundFrac:    0.02,
		AutoMPSerial:    1.0,
		Profiles: map[string]MachineProfile{
			"PHI":   {TimeSec: 2133.20, TLBPressure: 0.0, StaticFrac: 0.0, KernelFrac: 0.18, SatThreads: 0},
			"8XEON": {TimeSec: 473.76, TLBPressure: 0.0, StaticFrac: 0.0, KernelFrac: 0.03, SatThreads: 0},
		},
	}
}

func mgSpec() *Spec {
	return &Spec{
		Name: "MG", Class: "C",
		Steps: 20,
		Loops: []LoopSpec{
			{Name: "resid", Share: 0.30, N: 192, Pattern: PatDOALL, Skew: 0.15},
			{Name: "psinv", Share: 0.25, N: 192, Pattern: PatDOALL, Skew: 0.35},
			{Name: "rprj3", Share: 0.20, N: 96, Pattern: PatDOALL, Skew: 0.55},
			{Name: "interp", Share: 0.25, N: 96, Pattern: PatDOALL, Skew: 0.45},
		},
		WorkingSetBytes: 3500 << 20,
		MemBoundFrac:    0.60,
		AutoMPSerial:    0.39,
		Profiles: map[string]MachineProfile{
			"PHI":   {TimeSec: 426.16, TLBPressure: 0.012, StaticFrac: 0.0, KernelFrac: 0.045, SatThreads: 0},
			"8XEON": {TimeSec: 88.55, TLBPressure: 0.03, StaticFrac: 0.0, KernelFrac: 0.13, SatThreads: 140},
		},
	}
}

func spSpec() *Spec {
	return &Spec{
		Name: "SP", Class: "C",
		Steps: 25,
		Loops: []LoopSpec{
			{Name: "rhs", Share: 0.43, N: 192, Pattern: PatDOALL},
			{Name: "txinvr", Share: 0.30, N: 192, Pattern: PatDOALL},
			{Name: "x_solve", Share: 0.09, N: 192, Pattern: PatPrivate},
			{Name: "y_solve", Share: 0.09, N: 192, Pattern: PatPrivate},
			{Name: "z_solve", Share: 0.09, N: 192, Pattern: PatPrivate},
		},
		WorkingSetBytes: 550 << 20,
		MemBoundFrac:    0.40,
		AutoMPSerial:    1.0,
		Profiles: map[string]MachineProfile{
			"PHI":   {TimeSec: 3917.06, TLBPressure: 0.12, StaticFrac: 0.31, KernelFrac: 0.23, SatThreads: 80},
			"8XEON": {TimeSec: 1024.77, TLBPressure: 0.09, StaticFrac: 0.05, KernelFrac: 0.28, SatThreads: 130},
		},
	}
}

func luSpec() *Spec {
	return &Spec{
		Name: "LU", Class: "C",
		Steps: 25,
		Loops: []LoopSpec{
			{Name: "rhs", Share: 0.34, N: 192, Pattern: PatDOALL},
			{Name: "jacld_blts", Share: 0.17, N: 192, Pattern: PatPrivate},
			{Name: "jacu_buts", Share: 0.15, N: 192, Pattern: PatPrivate},
			{Name: "l2norm", Share: 0.04, N: 192, Pattern: PatReduction},
			{Name: "ssor_update", Share: 0.30, N: 192, Pattern: PatDOALL},
		},
		WorkingSetBytes: 650 << 20,
		MemBoundFrac:    0.40,
		AutoMPSerial:    1.0,
		Profiles: map[string]MachineProfile{
			"PHI":   {TimeSec: 4810.22, TLBPressure: 0.06, StaticFrac: 0.0, KernelFrac: 0.12, SatThreads: 0},
			"8XEON": {TimeSec: 1211.43, TLBPressure: 0.06, StaticFrac: 0.02, KernelFrac: 0.24, SatThreads: 150},
		},
	}
}

func cgSpec() *Spec {
	return &Spec{
		Name: "CG", Class: "C",
		Steps: 15,
		Loops: []LoopSpec{
			{Name: "spmv", Share: 0.75, N: 192, Pattern: PatDOALL, Skew: 0.35},
			{Name: "axpy1", Share: 0.08, N: 192, Pattern: PatDOALL},
			{Name: "axpy2", Share: 0.07, N: 192, Pattern: PatDOALL},
			{Name: "dot1", Share: 0.05, N: 192, Pattern: PatReduction},
			{Name: "dot2", Share: 0.05, N: 192, Pattern: PatReduction},
		},
		WorkingSetBytes: 1100 << 20,
		MemBoundFrac:    0.70,
		AutoMPSerial:    0.66,
		Profiles: map[string]MachineProfile{
			"PHI":   {TimeSec: 988.41, TLBPressure: 0.02, StaticFrac: 0.0, KernelFrac: 0.045, SatThreads: 0},
			"8XEON": {TimeSec: 271.15, TLBPressure: 0.04, StaticFrac: 0.0, KernelFrac: 0.22, SatThreads: 160},
		},
	}
}

func isSpec() *Spec {
	return &Spec{
		Name: "IS", Class: "C",
		Steps: 10,
		Loops: []LoopSpec{
			{Name: "genkeys", Share: 0.30, N: 192, Pattern: PatPrivate},
			{Name: "histogram", Share: 0.45, N: 192, Pattern: PatPrivate},
			{Name: "rank_scan", Share: 0.10, N: 192, Pattern: PatSequential},
			{Name: "permute", Share: 0.15, N: 192, Pattern: PatPrivate},
		},
		WorkingSetBytes: 550 << 20,
		MemBoundFrac:    0.30,
		AutoMPSerial:    1.0,
		Profiles: map[string]MachineProfile{
			"PHI":   {TimeSec: 48.15, TLBPressure: 0.03, StaticFrac: 0.0, KernelFrac: 0.17, SatThreads: 48},
			"8XEON": {TimeSec: 10.43, TLBPressure: 0.04, StaticFrac: 0.0, KernelFrac: 0.30, SatThreads: 100},
		},
	}
}
