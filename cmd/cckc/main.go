// Command cckc is the CCK compiler driver: it runs the AutoMP middle-end
// (dependence analysis, fusion, latency-aware chunking) on a NAS
// benchmark's IR and prints the compilation report — which loops became
// tasks, which stayed sequential and why, and the resulting parallel
// coverage (§5, §6.2).
//
// Usage:
//
//	cckc -bench IS                 # the no-parallelism extreme case
//	cckc -bench BT -workers 64
//	cckc -bench BT -privatization  # the future-work extension knob
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/interweaving/komp/internal/cck"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/nas"
)

func main() {
	benchName := flag.String("bench", "BT", "NAS benchmark (BT,FT,EP,MG,SP,LU,CG,IS)")
	workers := flag.Int("workers", 64, "VIRGIL worker count the chunker targets")
	machineName := flag.String("machine", "PHI", "PHI or 8XEON")
	priv := flag.Bool("privatization", false, "exploit OpenMP privatization directives (the extension of §6.2)")
	fuse := flag.Bool("fuse", true, "enable the loop-fusion pass")
	full := flag.Bool("full", false, "print the per-region report for all timesteps (default: first timestep only)")
	flag.Parse()

	s := nas.SpecByName(strings.ToUpper(*benchName))
	if s == nil {
		fmt.Fprintf(os.Stderr, "cckc: unknown benchmark %q\n", *benchName)
		os.Exit(2)
	}
	m, err := machine.ByName(strings.ToUpper(*machineName))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cckc: %v\n", err)
		os.Exit(2)
	}

	prog := s.Program(m, *workers, nas.PipeAutoMP)
	compiled, err := cck.Compile(prog, cck.Options{
		Workers:              *workers,
		Fuse:                 *fuse,
		ExploitPrivatization: *priv,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cckc: %v\n", err)
		os.Exit(1)
	}

	report := compiled.Report()
	if !*full {
		// Trim to the preamble plus the first timestep's regions.
		lines := strings.Split(report, "\n")
		var out []string
		for _, l := range lines {
			if strings.Contains(l, "_t001") {
				out = append(out, fmt.Sprintf("  ... (%d more timesteps)", s.Steps-1))
				break
			}
			out = append(out, l)
		}
		report = strings.Join(out, "\n")
	}
	fmt.Println(report)
	fmt.Printf("\nparallel coverage: %.1f%% of estimated cost\n", compiled.ParallelCoverage()*100)
	if seqs := compiled.SequentialLoops(); len(seqs) > 0 {
		fmt.Printf("sequential loops: %d (first: %s)\n", len(seqs), seqs[0])
	} else {
		fmt.Println("sequential loops: none")
	}
}
