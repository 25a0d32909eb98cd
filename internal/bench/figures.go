package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/epcc"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/nas"
	"github.com/interweaving/komp/internal/stats"
)

// The figures render over two per-environment cell runs: runEPCC (all
// four EPCC suites in one environment) for Figs. 7, 8 and 13, and sweep
// (one NAS model across the core-count sweep in one environment) for
// Figs. 9-12, 14 and 15.

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
// each suite's results in epcc.Suites() order. The benchmark list of a
// suite depends only on the thread count, so every environment of a
// figure returns the same names in the same order.
func runEPCC(m *machine.Machine, kind core.Kind, threads int, seed int64, quick bool) ([][]epcc.Result, error) {
	env := core.New(core.Config{Machine: m, Kind: kind, Seed: seed, Threads: threads})
	rt := env.OMPRuntime()
	var suites [][]epcc.Result
	var runErr error
	_, err := env.Layer.Run(func(tc exec.TC) {
		defer rt.Close(tc)
		for _, suite := range epcc.Suites() {
			rs, err := epcc.Run(tc, rt, suite, epccConfig(threads, quick))
			if err != nil {
				runErr = err
				return
			}
			suites = append(suites, rs)
		}
	})
	if err == nil {
		err = runErr
	}
	return suites, err
}

// epccFigure renders one EPCC comparison figure, one table per suite
// with a column pair per environment, recording a Record per
// (environment, benchmark) when opt.Recorder is set.
func epccFigure(w io.Writer, id, title string, m *machine.Machine, kinds []core.Kind, threads int, opt Options) error {
	fmt.Fprintln(w, title)
	data := make([][][]epcc.Result, len(kinds)) // kind -> suite -> benchmark
	for k, kind := range kinds {
		suites, err := runEPCC(m, kind, threads, opt.seed(), opt.Quick)
		if err != nil {
			return err
		}
		data[k] = suites
	}
	for si, suite := range epcc.Suites() {
		fmt.Fprintf(w, "\n(%s)\n", suite)
		fmt.Fprintf(w, "%-26s", "benchmark")
		for _, kind := range kinds {
			fmt.Fprintf(w, " %14s %10s", kind.String()+" us", "sd")
		}
		fmt.Fprintln(w)
		for bi, row := range data[0][si] {
			fmt.Fprintf(w, "%-26s", row.Name)
			for k := range kinds {
				r := data[k][si][bi]
				fmt.Fprintf(w, " %14.3f %10.3f", r.OverheadUS, r.SDUS)
			}
			fmt.Fprintln(w)
		}
		for k, kind := range kinds {
			for _, r := range data[k][si] {
				rec := Record{Figure: id, Suite: suite, Construct: r.Name, Env: kind.String(),
					Cores: threads, MedianNS: r.OverheadUS * 1000, SDNS: r.SDUS * 1000}
				if suite == "SCHEDULE" {
					rec.Construct, rec.Schedule = "for", r.Name
				}
				opt.Recorder.Add(rec)
			}
		}
	}
	return nil
}

// Fig7 regenerates Figure 7: EPCC, RTK vs Linux, 64 cores of PHI.
func Fig7(w io.Writer, opt Options) error {
	threads := 64
	if opt.Quick {
		threads = 8
	}
	return epccFigure(w, "fig7",
		fmt.Sprintf("Figure 7: RTK vs Linux, EPCC microbenchmarks, %d cores of PHI (overhead us; lower is better)", threads),
		machine.PHI(), []core.Kind{core.Linux, core.RTK}, threads, opt)
}

// Fig8 regenerates Figure 8: EPCC, PIK vs Linux, 64 cores of PHI.
func Fig8(w io.Writer, opt Options) error {
	threads := 64
	if opt.Quick {
		threads = 8
	}
	return epccFigure(w, "fig8",
		fmt.Sprintf("Figure 8: PIK vs Linux, EPCC microbenchmarks, %d cores of PHI (overhead us; lower is better)", threads),
		machine.PHI(), []core.Kind{core.Linux, core.PIK}, threads, opt)
}

// Fig13 regenerates Figure 13: EPCC, RTK and PIK vs Linux, 192 cores of
// 8XEON.
func Fig13(w io.Writer, opt Options) error {
	threads := 192
	if opt.Quick {
		threads = 24
	}
	return epccFigure(w, "fig13",
		fmt.Sprintf("Figure 13: RTK and PIK vs Linux, EPCC microbenchmarks, %d cores of 8XEON (overhead us; lower is better)", threads),
		machine.XEON8(), []core.Kind{core.Linux, core.RTK, core.PIK}, threads, opt)
}

// --- NAS figures ---

// isNote is the caption of every AutoMP figure, which elides IS.
const isNote = "note: IS elided — AutoMP extracts no parallelism from it (§6.2)"

// nasScales is the figure's core-count sweep on m. Every sweep starts at
// one thread, the normalized tables' t(Linux,1thr) column.
func nasScales(m *machine.Machine, opt Options) []int {
	if opt.Quick {
		if m.Sockets > 1 {
			return []int{1, 24, 192}
		}
		return []int{1, 8, 64}
	}
	return m.Scales
}

// nasSpecs resolves opt.Benchmarks (all eight when empty). Names are
// matched trimmed and upper-cased; an unknown name is an error listing
// the valid ones.
func nasSpecs(opt Options) ([]*nas.Spec, error) {
	if len(opt.Benchmarks) == 0 {
		return nas.Specs(), nil
	}
	var out []*nas.Spec
	for _, n := range opt.Benchmarks {
		s := nas.SpecByName(strings.ToUpper(strings.TrimSpace(n)))
		if s == nil {
			var valid []string
			for _, v := range nas.Specs() {
				valid = append(valid, v.Name)
			}
			return nil, fmt.Errorf("unknown NAS benchmark %q (valid: %s)", n, strings.Join(valid, ", "))
		}
		out = append(out, s)
	}
	return out, nil
}

// cckSpecs drops IS from the AutoMP comparisons: AutoMP extracts no
// parallelism from it (§6.2: "IS, which we elide entirely, is an extreme
// case").
func cckSpecs(opt Options) ([]*nas.Spec, error) {
	specs, err := nasSpecs(opt)
	var out []*nas.Spec
	for _, s := range specs {
		if s.Name != "IS" {
			out = append(out, s)
		}
	}
	return out, err
}

// sweep runs spec s under kind at every scale, recording each run as a
// Record of figure id, and returns the seconds per scale.
func sweep(id string, m *machine.Machine, kind core.Kind, s *nas.Spec, scales []int, opt Options) ([]float64, error) {
	secs := make([]float64, len(scales))
	for i, n := range scales {
		env := core.New(core.Config{Machine: m, Kind: kind, Seed: opt.seed(), Threads: n,
			BootImageBytes: s.WorkingSetBytes})
		res, err := nas.RunModel(env, s, n)
		if err != nil {
			return nil, fmt.Errorf("%s %v@%d: %w", s.Name, kind, n, err)
		}
		secs[i] = res.Seconds
		opt.Recorder.Add(Record{Figure: id, Construct: s.Name + "-" + s.Class,
			Env: kind.String(), Cores: n, Seconds: res.Seconds})
	}
	return secs, nil
}

// nasRelFigure renders a normalized-performance NAS figure: one row per
// (benchmark, environment of kinds) giving Linux time / environment time
// at every scale, then one geomean line per environment, sorted by name.
// specs selects the benchmarks. Every sweep is recorded, per benchmark
// the Linux baseline first.
func nasRelFigure(w io.Writer, id, title string, m *machine.Machine, kinds []core.Kind,
	specs func(Options) ([]*nas.Spec, error), opt Options) error {
	ss, err := specs(opt)
	if err != nil {
		return err
	}
	scales := nasScales(m, opt)
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-8s %-14s %-12s", "bench", "t(Linux,1thr)", "env")
	for _, n := range scales {
		fmt.Fprintf(w, " %7d", n)
	}
	fmt.Fprintln(w)
	ratios := map[string][]float64{}
	for _, s := range ss {
		linux, err := sweep(id, m, core.Linux, s, scales, opt)
		if err != nil {
			return err
		}
		for _, kind := range kinds {
			secs, err := sweep(id, m, kind, s, scales, opt)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-8s %-14.2f %-12s", s.Name+"-"+s.Class, linux[0], kind)
			for i := range scales {
				ratio := linux[i] / secs[i]
				fmt.Fprintf(w, " %7.2f", ratio)
				ratios[kind.String()] = append(ratios[kind.String()], ratio)
			}
			fmt.Fprintln(w)
		}
	}
	var names []string
	for en := range ratios {
		names = append(names, en)
	}
	sort.Strings(names)
	for _, en := range names {
		fmt.Fprintf(w, "geomean(%s) across benchmarks and scales: %.2f\n", en, stats.GeoMean(ratios[en]))
	}
	return nil
}

// Fig9 regenerates Figure 9: NAS, RTK relative to Linux on PHI.
func Fig9(w io.Writer, opt Options) error {
	return nasRelFigure(w, "fig9",
		"Figure 9: RTK performance relative to Linux (NAS on PHI; higher is better; baseline 1.0)",
		machine.PHI(), []core.Kind{core.RTK}, nasSpecs, opt)
}

// Fig10 regenerates Figure 10: NAS, PIK relative to Linux on PHI.
func Fig10(w io.Writer, opt Options) error {
	return nasRelFigure(w, "fig10",
		"Figure 10: PIK performance relative to Linux (NAS on PHI; higher is better; baseline 1.0)",
		machine.PHI(), []core.Kind{core.PIK}, nasSpecs, opt)
}

// Fig14 regenerates Figure 14: NAS, RTK and PIK relative to Linux on
// 8XEON.
func Fig14(w io.Writer, opt Options) error {
	return nasRelFigure(w, "fig14",
		"Figure 14: RTK and PIK performance relative to Linux (NAS on 8XEON; higher is better; baseline 1.0)",
		machine.XEON8(), []core.Kind{core.RTK, core.PIK}, nasSpecs, opt)
}

// Fig11 regenerates Figure 11: CCK absolute times on PHI (Linux OMP,
// Linux AutoMP, NK AutoMP).
func Fig11(w io.Writer, opt Options) error {
	m := machine.PHI()
	specs, err := cckSpecs(opt)
	if err != nil {
		return err
	}
	scales := nasScales(m, opt)
	kinds := []core.Kind{core.Linux, core.LinuxAutoMP, core.CCK}
	data := make([][][]float64, len(specs)) // spec -> kind -> scale
	for i, s := range specs {
		for _, kind := range kinds {
			secs, err := sweep("fig11", m, kind, s, scales, opt)
			if err != nil {
				return err
			}
			data[i] = append(data[i], secs)
		}
	}
	fmt.Fprintln(w, "Figure 11: CCK absolute performance on PHI (seconds; lower is better)")
	fmt.Fprintln(w, isNote)
	for i, s := range specs {
		fmt.Fprintf(w, "\n%s-%s\n", s.Name, s.Class)
		fmt.Fprintf(w, "%-14s", "config")
		for _, n := range scales {
			fmt.Fprintf(w, " %10d", n)
		}
		fmt.Fprintln(w)
		for k, kind := range kinds {
			fmt.Fprintf(w, "%-14s", kind)
			for _, secs := range data[i][k] {
				fmt.Fprintf(w, " %10.2f", secs)
			}
			fmt.Fprintln(w)
		}
		if s.Name == "EP" {
			// The fourth environment: the AutoMP pipeline retargeted at the
			// simulated accelerator (device offload). EP is embarrassingly
			// parallel — the best case for a wide SIMT league — so it is
			// the one benchmark the device point is plotted for.
			const devCUs, devLanes = 32, 64
			env := core.New(core.Config{
				Machine: machine.WithDevice(machine.PHI(), devCUs, devLanes),
				Kind:    core.CCK, Seed: opt.seed(), Threads: 1,
				BootImageBytes: s.WorkingSetBytes})
			res, err := nas.RunOffloadModel(env, s, 0)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-14s %10.2f   (%dx%d device, single point)\n",
				"nk-automp+dev", res.Seconds, devCUs, devLanes)
			st := env.Device().Stats()
			opt.Recorder.Add(Record{Figure: "fig11", Construct: s.Name + "-" + s.Class,
				Env: "nk-automp+dev", Cores: devCUs * devLanes, Seconds: res.Seconds,
				DeviceCUs: devCUs, DeviceLanes: devLanes,
				BytesH2D: st.BytesH2D, BytesD2H: st.BytesD2H})
		}
	}
	return nil
}

// cckRelFigure renders Fig. 12/15: both AutoMP variants normalized to
// Linux OpenMP, IS elided.
func cckRelFigure(w io.Writer, id, title string, m *machine.Machine, opt Options) error {
	if err := nasRelFigure(w, id, title, m, []core.Kind{core.LinuxAutoMP, core.CCK}, cckSpecs, opt); err != nil {
		return err
	}
	fmt.Fprintln(w, isNote)
	return nil
}

// Fig12 regenerates Figure 12: CCK relative to Linux OpenMP on PHI.
func Fig12(w io.Writer, opt Options) error {
	return cckRelFigure(w, "fig12",
		"Figure 12: CCK performance relative to Linux OpenMP (NAS on PHI; higher is better; baseline 1.0)",
		machine.PHI(), opt)
}

// Fig15 regenerates Figure 15: CCK relative to Linux OpenMP on 8XEON.
func Fig15(w io.Writer, opt Options) error {
	return cckRelFigure(w, "fig15",
		"Figure 15: CCK performance relative to Linux OpenMP (NAS on 8XEON; higher is better; baseline 1.0)",
		machine.XEON8(), opt)
}
