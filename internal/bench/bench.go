// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (§6) — Figure 6 through Figure 15
// — as text tables, from the simulated environments.
package bench

import (
	"fmt"
	"io"

	"github.com/interweaving/komp/internal/cck"
	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/virgil"
)

// Options tunes a figure run.
type Options struct {
	// Seed for the deterministic simulators.
	Seed int64
	// Quick reduces repetitions and scales for smoke runs.
	Quick bool
	// Benchmarks restricts the NAS set (nil: all eight). Names match
	// case-insensitively; an unknown name fails every NAS figure.
	Benchmarks []string
	// Recorder, when non-nil, collects machine-readable Records from
	// every figure run (kompbench -json).
	Recorder *Recorder
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// Figure is a regenerable figure.
type Figure struct {
	ID    string
	Title string
	Run   func(w io.Writer, opt Options) error
}

// Figures returns all figures in paper order.
func Figures() []Figure {
	return []Figure{
		{"fig6", "Design and software engineering tradeoffs", Fig6},
		{"fig7", "EPCC microbenchmarks: RTK vs Linux, 64 cores of PHI", Fig7},
		{"fig8", "EPCC microbenchmarks: PIK vs Linux, 64 cores of PHI", Fig8},
		{"fig9", "NAS: RTK relative to Linux on PHI", Fig9},
		{"fig10", "NAS: PIK relative to Linux on PHI", Fig10},
		{"fig11", "NAS: CCK absolute times on PHI", Fig11},
		{"fig12", "NAS: CCK relative to Linux OpenMP on PHI", Fig12},
		{"fig13", "EPCC microbenchmarks: RTK and PIK vs Linux, 192 cores of 8XEON", Fig13},
		{"fig14", "NAS: RTK and PIK relative to Linux on 8XEON", Fig14},
		{"fig15", "NAS: CCK relative to Linux OpenMP on 8XEON", Fig15},
	}
}

// ByID returns a figure by its id.
func ByID(id string) (Figure, bool) { return lookup(Figures(), id) }

// lookup resolves id in a registry of figures or ablations.
func lookup(figs []Figure, id string) (Figure, bool) {
	for _, f := range figs {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// --- Figure 6: the static design-tradeoff table ---

// Fig6 renders the design/software-engineering summary (the paper's
// Figure 6, which is a table, reproduced verbatim as the design facts of
// this reproduction).
func Fig6(w io.Writer, _ Options) error {
	fmt.Fprintln(w, "Figure 6: summary of design and software engineering tradeoffs")
	fmt.Fprintln(w, "")
	fmt.Fprintf(w, "%-34s %10s %10s %12s\n", "Aspect", "RTK", "PIK", "CCK")
	fmt.Fprintln(w, "--- Effort ---")
	fmt.Fprintf(w, "%-34s %10s %10s %12s\n", "Runtime", "major", "none", "minor")
	fmt.Fprintf(w, "%-34s %10s %10s %12s\n", "Kernel", "minor", "major", "minor")
	fmt.Fprintf(w, "%-34s %10s %10s %12s\n", "Compiler", "none", "none", "major")
	fmt.Fprintln(w, "--- Implementation Size (C LOC in the paper) ---")
	fmt.Fprintf(w, "%-34s %10s %10s %12s\n", "Runtime", "1,600", "0", "550")
	fmt.Fprintf(w, "%-34s %10s %10s %12s\n", "Kernel", "2,200", "13,250", "600")
	fmt.Fprintf(w, "%-34s %10s %10s %12s\n", "Compiler", "0", "0", "6,550 (C++)")
	fmt.Fprintln(w, "--- Benefits and Opportunities ---")
	fmt.Fprintf(w, "%-34s %10s %10s %12s\n", "Application development", "easier", "easiest", "easy")
	fmt.Fprintf(w, "%-34s %10s %10s %12s\n", "Leveraging kernel context", "easier", "difficult", "easiest")
	fmt.Fprintf(w, "%-34s %10s %10s %12s\n", "Decoupled from OpenMP runtime", "no", "no", "yes")
	fmt.Fprintf(w, "%-34s %10s %10s %12s\n", "Applies to all code in kernel", "yes", "no", "no")
	fmt.Fprintf(w, "%-34s %10s %10s %12s\n", "Automatic parallelization", "no", "no", "yes")
	return nil
}

// --- The shared experiment shapes ---

// scaleHeader prints the header of a scale-sweep table: label (already
// padded to the row labels' width), then one column per core count.
func scaleHeader(w io.Writer, label string, scales []int) {
	fmt.Fprint(w, label)
	for _, n := range scales {
		fmt.Fprintf(w, " %9d", n)
	}
	fmt.Fprintln(w)
}

// scaleRow prints one row of a scale-sweep table: label, then cell(n)
// for every core count n. It stops at the first failing cell, so a cell
// that records a Record does so only after it succeeded.
func scaleRow(w io.Writer, label string, scales []int, cell func(n int) (float64, error)) error {
	fmt.Fprint(w, label)
	for _, n := range scales {
		v, err := cell(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, " %9.2f", v)
	}
	fmt.Fprintln(w)
	return nil
}

// marginalUS is the per-round slope, in microseconds, between a 20- and
// a 40-round run of the same region: it cancels the one-time pool spawn
// and fork/join, exactly as EPCC's reference-subtracted overhead does.
// run returns the elapsed virtual ns of a region repeating its body
// rounds times.
func marginalUS(run func(rounds int) (int64, error)) (float64, error) {
	const baseRounds, moreRounds = 20, 40
	short, err := run(baseRounds)
	if err != nil {
		return 0, err
	}
	long, err := run(moreRounds)
	if err != nil {
		return 0, err
	}
	return float64(long-short) / float64(moreRounds-baseRounds) / 1000, nil
}

// runAutoMP compiles prog with o, builds a CCK environment from cfg (its
// Kind is ignored), and runs the compiled program once on the
// environment's kernel-level VIRGIL. It returns the elapsed virtual ns
// and the number of tasks the compiler generated.
func runAutoMP(cfg core.Config, prog *cck.Program, o cck.Options) (elapsed int64, tasks int, err error) {
	comp, err := cck.Compile(prog, o)
	if err != nil {
		return 0, 0, err
	}
	for _, cf := range comp.Fns {
		for _, r := range cf.Regions {
			tasks += len(r.Chunks)
		}
	}
	cfg.Kind = core.CCK
	env := core.New(cfg)
	elapsed, err = env.Layer.Run(func(tc exec.TC) {
		env.WithVirgil(tc, func(v virgil.Runtime) { comp.RunVirgil(tc, v, env.Scale(0)) })
	})
	return elapsed, tasks, err
}
