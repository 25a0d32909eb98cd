// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (§6) — Figure 6 through Figure 15
// — as text tables, from the simulated environments.
package bench

import (
	"fmt"
	"io"
	"sort"

	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/epcc"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/nas"
	"github.com/interweaving/komp/internal/stats"
)

// Options tunes a figure run.
type Options struct {
	// Seed for the deterministic simulators.
	Seed int64
	// Quick reduces repetitions and scales for smoke runs.
	Quick bool
	// Scales overrides the machine's CPU sweep (nil: paper sweep).
	Scales []int
	// Benchmarks restricts the NAS set (nil: all eight).
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
func ByID(id string) (Figure, bool) {
	for _, f := range Figures() {
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

// --- EPCC figures ---

func epccConfig(threads int, quick bool) epcc.Config {
	cfg := epcc.Defaults(threads)
	if quick {
		cfg.OuterReps = 3
	} else {
		cfg.OuterReps = 7
	}
	return cfg
}

// runEPCC runs all four suites under one environment kind, returning
// results keyed by suite, plus the per-suite benchmark order.
func runEPCC(m *machine.Machine, kind core.Kind, threads int, seed int64, quick bool) (map[string]map[string]epcc.Result, map[string][]string, error) {
	env := core.New(core.Config{Machine: m, Kind: kind, Seed: seed, Threads: threads})
	rt := env.OMPRuntime()
	bySuite := map[string]map[string]epcc.Result{}
	order := map[string][]string{}
	var runErr error
	_, err := env.Layer.Run(func(tc exec.TC) {
		defer rt.Close(tc)
		for _, suite := range epcc.Suites() {
			rs, err := epcc.Run(tc, rt, suite, epccConfig(threads, quick))
			if err != nil {
				runErr = err
				return
			}
			m := map[string]epcc.Result{}
			for _, r := range rs {
				m[r.Name] = r
				order[suite] = append(order[suite], r.Name)
			}
			bySuite[suite] = m
		}
	})
	if err == nil {
		err = runErr
	}
	return bySuite, order, err
}

// epccTable renders one suite comparison.
func epccTable(w io.Writer, suite string, names []string, cols []string, data map[string]map[string]epcc.Result) {
	fmt.Fprintf(w, "\n(%s)\n", suite)
	fmt.Fprintf(w, "%-26s", "benchmark")
	for _, c := range cols {
		fmt.Fprintf(w, " %14s %10s", c+" us", "sd")
	}
	fmt.Fprintln(w)
	for _, n := range names {
		fmt.Fprintf(w, "%-26s", n)
		for _, c := range cols {
			r := data[c][n]
			fmt.Fprintf(w, " %14.3f %10.3f", r.OverheadUS, r.SDUS)
		}
		fmt.Fprintln(w)
	}
}

// --- NAS sweep helpers ---

func nasScales(m *machine.Machine, opt Options) []int {
	if len(opt.Scales) > 0 {
		return opt.Scales
	}
	if opt.Quick {
		if m.Sockets > 1 {
			return []int{1, 24, 192}
		}
		return []int{1, 8, 64}
	}
	return m.Scales
}

func nasSpecs(opt Options) []*nas.Spec {
	if len(opt.Benchmarks) == 0 {
		return nas.Specs()
	}
	var out []*nas.Spec
	for _, n := range opt.Benchmarks {
		if s := nas.SpecByName(n); s != nil {
			out = append(out, s)
		}
	}
	return out
}

// sweep runs spec under kind across scales, returning seconds per scale.
func sweep(m *machine.Machine, kind core.Kind, s *nas.Spec, scales []int, seed int64) (map[int]float64, error) {
	out := map[int]float64{}
	for _, n := range scales {
		env := core.New(core.Config{Machine: m, Kind: kind, Seed: seed, Threads: n,
			BootImageBytes: s.WorkingSetBytes})
		res, err := nas.RunModel(env, s, n)
		if err != nil {
			return nil, fmt.Errorf("%s %v@%d: %w", s.Name, kind, n, err)
		}
		out[n] = res.Seconds
	}
	return out, nil
}

// relTable renders a normalized-performance table (Linux/env per scale).
func relTable(w io.Writer, title string, scales []int, specs []*nas.Spec,
	linux map[string]map[int]float64, envs map[string]map[string]map[int]float64, envOrder []string) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-8s %-14s %-12s", "bench", "t(Linux,1thr)", "env")
	for _, n := range scales {
		fmt.Fprintf(w, " %7d", n)
	}
	fmt.Fprintln(w)
	var all = map[string][]float64{}
	for _, s := range specs {
		for _, en := range envOrder {
			ev, ok := envs[en][s.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-8s %-14.2f %-12s", s.Name+"-"+s.Class, linux[s.Name][1], en)
			for _, n := range scales {
				ratio := linux[s.Name][n] / ev[n]
				fmt.Fprintf(w, " %7.2f", ratio)
				all[en] = append(all[en], ratio)
			}
			fmt.Fprintln(w)
		}
	}
	var names []string
	for en := range all {
		names = append(names, en)
	}
	sort.Strings(names)
	for _, en := range names {
		fmt.Fprintf(w, "geomean(%s) across benchmarks and scales: %.2f\n", en, stats.GeoMean(all[en]))
	}
}
