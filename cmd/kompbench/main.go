// Command kompbench regenerates the paper's tables and figures (Figure 6
// through Figure 15) on the simulated PHI and 8XEON machines.
//
// Usage:
//
//	kompbench                 # regenerate everything
//	kompbench -figure fig9    # one figure
//	kompbench -quick          # reduced scales/reps for a fast look
//	kompbench -bench BT,EP    # restrict the NAS set
//	kompbench -json out.json  # also write machine-readable records
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/interweaving/komp/internal/bench"
)

func main() {
	figure := flag.String("figure", "", "figure id (fig6..fig15); empty = all")
	ablation := flag.String("ablation", "", "ablation id (ab-firsttouch, ab-pthread, ab-chunk, ab-privatization, ab-boot, barrier, tasking, affinity, faults, cancel, simcore, nested, tenancy, offload); 'all' runs every ablation")
	quick := flag.Bool("quick", false, "reduced scales and repetitions")
	profile := flag.Bool("profile", false, "per-construct profile of every environment (instead of figures)")
	seed := flag.Int64("seed", 42, "simulator seed")
	benches := flag.String("bench", "", "comma-separated NAS subset (e.g. BT,EP)")
	jsonPath := flag.String("json", "", "write machine-readable per-figure records to this file")
	flag.Parse()

	// A flag that one of these combinations would ignore is refused.
	switch {
	case *figure != "" && *ablation != "":
		usageError("-figure and -ablation are exclusive; run them one at a time")
	case *profile && (*figure != "" || *ablation != ""):
		usageError("-profile runs instead of figures and ablations; drop -figure/-ablation")
	case *profile && *jsonPath != "":
		usageError("-profile writes no records; drop -json")
	}

	opt := bench.Options{Quick: *quick, Seed: *seed}
	if *benches != "" {
		opt.Benchmarks = strings.Split(*benches, ",")
	}
	if *jsonPath != "" {
		opt.Recorder = &bench.Recorder{}
	}

	if *profile {
		// The profile runs on the simulators: stdout is virtual-time only,
		// a pure function of the seed (bench-smoke diffs two runs).
		if err := bench.ProfileReport(os.Stdout, opt); err != nil {
			fmt.Fprintf(os.Stderr, "kompbench: profile: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var figs []bench.Figure
	switch {
	case *ablation == "all":
		figs = bench.Ablations()
	case *ablation != "":
		f, ok := bench.AblationByID(*ablation)
		if !ok {
			fmt.Fprintf(os.Stderr, "kompbench: unknown ablation %q; available:\n", *ablation)
			for _, f := range bench.Ablations() {
				fmt.Fprintf(os.Stderr, "  %-18s %s\n", f.ID, f.Title)
			}
			os.Exit(2)
		}
		figs = []bench.Figure{f}
	case *figure == "":
		figs = bench.Figures()
	default:
		f, ok := bench.ByID(*figure)
		if !ok {
			fmt.Fprintf(os.Stderr, "kompbench: unknown figure %q; available:\n", *figure)
			for _, f := range bench.Figures() {
				fmt.Fprintf(os.Stderr, "  %-6s %s\n", f.ID, f.Title)
			}
			os.Exit(2)
		}
		figs = []bench.Figure{f}
	}

	for i, f := range figs {
		if i > 0 {
			fmt.Println()
			fmt.Println(strings.Repeat("=", 78))
			fmt.Println()
		}
		start := time.Now()
		if err := f.Run(os.Stdout, opt); err != nil {
			fmt.Fprintf(os.Stderr, "kompbench: %s: %v\n", f.ID, err)
			os.Exit(1)
		}
		// Wall-clock timing goes to stderr so stdout is a pure function of
		// the seed (fault runs are diffed byte-for-byte across runs).
		fmt.Fprintf(os.Stderr, "[%s regenerated in %.1fs]\n", f.ID, time.Since(start).Seconds())
	}

	if *jsonPath != "" {
		out, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kompbench: %v\n", err)
			os.Exit(1)
		}
		if err := opt.Recorder.WriteJSON(out); err != nil {
			fmt.Fprintf(os.Stderr, "kompbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		if err := out.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "kompbench: closing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%d records written to %s]\n", len(opt.Recorder.Records), *jsonPath)
	}
}

// usageError reports a flag combination kompbench cannot honor and exits
// with status 2, like an unknown flag.
func usageError(msg string) {
	fmt.Fprintf(os.Stderr, "kompbench: %s\n", msg)
	os.Exit(2)
}
