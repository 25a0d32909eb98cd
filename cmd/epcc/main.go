// Command epcc runs the EPCC OpenMP microbenchmark suites (ARRAY,
// SCHEDULE, SYNCH, TASK) under one of the simulated execution
// environments and prints per-directive overheads.
//
// Usage:
//
//	epcc -machine PHI -env rtk -threads 64
//	epcc -machine 8XEON -env linux -suite SYNCH -threads 192
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"runtime"

	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/epcc"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/omp"
)

func main() {
	machineName := flag.String("machine", "PHI", "PHI or 8XEON")
	envName := flag.String("env", "linux", "linux, rtk, or pik")
	threads := flag.Int("threads", 0, "team size (0 = all CPUs)")
	suite := flag.String("suite", "", "one suite (ARRAY/SCHEDULE/SYNCH/TASK); empty = all")
	outer := flag.Int("reps", 7, "outer repetitions")
	seed := flag.Int64("seed", 42, "simulator seed")
	real := flag.Bool("real", false, "run on real goroutines (measure this host) instead of the simulator")
	flag.Parse()

	m, err := machine.ByName(strings.ToUpper(*machineName))
	if err != nil {
		fmt.Fprintf(os.Stderr, "epcc: %v\n", err)
		os.Exit(2)
	}
	var kind core.Kind
	switch strings.ToLower(*envName) {
	case "linux":
		kind = core.Linux
	case "rtk":
		kind = core.RTK
	case "pik":
		kind = core.PIK
	default:
		fmt.Fprintf(os.Stderr, "epcc: unknown environment %q (CCK has no OpenMP runtime to measure)\n", *envName)
		os.Exit(2)
	}
	n := *threads
	if n <= 0 {
		n = m.NumCPUs()
	}
	suites := epcc.Suites()
	if *suite != "" {
		suites = []string{strings.ToUpper(*suite)}
	}

	var layer exec.Layer
	var rt *omp.Runtime
	if *real {
		n = *threads
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		layer = exec.NewRealLayer(n)
		rt = omp.New(layer, omp.Options{MaxThreads: n, Bind: true})
		fmt.Printf("EPCC on this host (real goroutines), %d threads\n", n)
	} else {
		env := core.New(core.Config{Machine: m, Kind: kind, Seed: *seed, Threads: n})
		layer = env.Layer
		rt = env.OMPRuntime()
		fmt.Printf("EPCC on %s, %s environment, %d threads\n", m.Name, kind, n)
	}
	cfg := epcc.Defaults(n)
	cfg.OuterReps = *outer

	var failed error
	_, err = layer.Run(func(tc exec.TC) {
		defer rt.Close(tc)
		for _, s := range suites {
			rs, err := epcc.Run(tc, rt, s, cfg)
			if err != nil {
				failed = err
				return
			}
			fmt.Printf("\n(%s)\n", s)
			for _, r := range rs {
				fmt.Println(r)
			}
		}
	})
	if err == nil {
		err = failed
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "epcc: %v\n", err)
		os.Exit(1)
	}
}
